package shard

// The HTTP/JSON surface, stdlib only. Campaign management is plain
// JSON request/response; completion bodies are the length-delimited
// frame streams of frame.go, sent as application/octet-stream.
//
//	POST /campaigns              spec JSON          -> {"id": "c1"}
//	GET  /campaigns/{id}         -> Progress JSON
//	GET  /campaigns/{id}/summary -> Summary JSON (409 until complete)
//	POST /lease                  {"worker": name}   -> Lease JSON | 204
//	POST /leases/{id}/heartbeat  -> 204 | 410 on expiry
//	POST /leases/{id}/complete   completion frames  -> 204

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
)

// maxSpecBytes bounds a campaign submission body.
const maxSpecBytes = 1 << 20

// Handler serves the coordinator's HTTP API.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /campaigns", func(w http.ResponseWriter, r *http.Request) {
		var spec CampaignSpec
		dec := json.NewDecoder(io.LimitReader(r.Body, maxSpecBytes))
		dec.DisallowUnknownFields() // a misspelt or retired field must not run defaults
		if err := dec.Decode(&spec); err != nil {
			httpError(w, http.StatusBadRequest, fmt.Errorf("shard: bad spec: %w", err))
			return
		}
		id, err := c.Submit(spec)
		if err != nil {
			httpError(w, http.StatusBadRequest, err)
			return
		}
		writeJSON(w, http.StatusCreated, map[string]string{"id": id})
	})
	mux.HandleFunc("GET /campaigns/{id}", func(w http.ResponseWriter, r *http.Request) {
		p, err := c.Progress(r.PathValue("id"))
		if err != nil {
			httpError(w, statusFor(err), err)
			return
		}
		writeJSON(w, http.StatusOK, p)
	})
	mux.HandleFunc("GET /campaigns/{id}/summary", func(w http.ResponseWriter, r *http.Request) {
		s, err := c.Summary(r.PathValue("id"))
		if err != nil {
			httpError(w, statusFor(err), err)
			return
		}
		writeJSON(w, http.StatusOK, s)
	})
	mux.HandleFunc("POST /lease", func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			Worker string `json:"worker"`
		}
		if err := json.NewDecoder(io.LimitReader(r.Body, maxSpecBytes)).Decode(&req); err != nil && err != io.EOF {
			httpError(w, http.StatusBadRequest, err)
			return
		}
		l, err := c.LeaseNext(req.Worker)
		if err != nil {
			httpError(w, http.StatusInternalServerError, err)
			return
		}
		if l == nil {
			w.WriteHeader(http.StatusNoContent)
			return
		}
		writeJSON(w, http.StatusOK, l)
	})
	mux.HandleFunc("POST /leases/{id}/heartbeat", func(w http.ResponseWriter, r *http.Request) {
		if err := c.Heartbeat(r.PathValue("id")); err != nil {
			httpError(w, statusFor(err), err)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	})
	mux.HandleFunc("POST /leases/{id}/complete", func(w http.ResponseWriter, r *http.Request) {
		if err := c.Complete(r.PathValue("id"), r.Body); err != nil {
			httpError(w, statusFor(err), err)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	})
	return mux
}

func statusFor(err error) int {
	switch {
	case errors.Is(err, ErrNotFound):
		return http.StatusNotFound
	case errors.Is(err, ErrIncomplete):
		return http.StatusConflict
	case errors.Is(err, ErrLeaseExpired):
		return http.StatusGone
	default:
		return http.StatusBadRequest
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func httpError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

// Client reaches a coordinator over HTTP and implements Transport. The
// zero HTTP field uses http.DefaultClient.
type Client struct {
	// Base is the coordinator URL, e.g. http://127.0.0.1:8080.
	Base string
	// HTTP overrides the http.Client (tests inject an in-process
	// round-tripper here, so the wire path is exercised socketlessly).
	HTTP *http.Client
}

func (c *Client) httpClient() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

func (c *Client) url(path string) string {
	return strings.TrimRight(c.Base, "/") + path
}

// decodeError turns a non-2xx response into the matching sentinel
// error so Transport callers can errors.Is across the wire.
func decodeError(resp *http.Response) error {
	var body struct {
		Error string `json:"error"`
	}
	_ = json.NewDecoder(io.LimitReader(resp.Body, maxSpecBytes)).Decode(&body)
	msg := body.Error
	if msg == "" {
		msg = resp.Status
	}
	switch resp.StatusCode {
	case http.StatusNotFound:
		return fmt.Errorf("%w: %s", ErrNotFound, msg)
	case http.StatusConflict:
		return fmt.Errorf("%w: %s", ErrIncomplete, msg)
	case http.StatusGone:
		return fmt.Errorf("%w: %s", ErrLeaseExpired, msg)
	default:
		return fmt.Errorf("shard: coordinator: %s", msg)
	}
}

func (c *Client) postJSON(path string, req, reply any) (int, error) {
	var body io.Reader
	if req != nil {
		b, err := json.Marshal(req)
		if err != nil {
			return 0, err
		}
		body = strings.NewReader(string(b))
	}
	resp, err := c.httpClient().Post(c.url(path), "application/json", body)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 300 {
		return resp.StatusCode, decodeError(resp)
	}
	if reply != nil && resp.StatusCode != http.StatusNoContent {
		return resp.StatusCode, json.NewDecoder(resp.Body).Decode(reply)
	}
	return resp.StatusCode, nil
}

func (c *Client) getJSON(path string, reply any) error {
	resp, err := c.httpClient().Get(c.url(path))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 300 {
		return decodeError(resp)
	}
	return json.NewDecoder(resp.Body).Decode(reply)
}

// Submit posts a campaign and returns its ID.
func (c *Client) Submit(spec CampaignSpec) (string, error) {
	var reply struct {
		ID string `json:"id"`
	}
	if _, err := c.postJSON("/campaigns", &spec, &reply); err != nil {
		return "", err
	}
	return reply.ID, nil
}

// Progress fetches a campaign's completion state.
func (c *Client) Progress(id string) (*Progress, error) {
	p := &Progress{}
	if err := c.getJSON("/campaigns/"+id, p); err != nil {
		return nil, err
	}
	return p, nil
}

// Summary fetches a completed campaign's summary.
func (c *Client) Summary(id string) (*Summary, error) {
	s := &Summary{}
	if err := c.getJSON("/campaigns/"+id+"/summary", s); err != nil {
		return nil, err
	}
	return s, nil
}

// Lease implements Transport.
func (c *Client) Lease(worker string) (*Lease, error) {
	l := &Lease{}
	status, err := c.postJSON("/lease", map[string]string{"worker": worker}, l)
	if err != nil {
		return nil, err
	}
	if status == http.StatusNoContent {
		return nil, nil
	}
	return l, nil
}

// Heartbeat implements Transport.
func (c *Client) Heartbeat(leaseID string) error {
	_, err := c.postJSON("/leases/"+leaseID+"/heartbeat", nil, nil)
	return err
}

// Complete implements Transport, streaming the completion body.
func (c *Client) Complete(leaseID string, body io.Reader) error {
	resp, err := c.httpClient().Post(c.url("/leases/"+leaseID+"/complete"), "application/octet-stream", body)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 300 {
		return decodeError(resp)
	}
	return nil
}

var _ Transport = (*Client)(nil)
