package shard

// Length-delimited JSON framing for completion streams. A completion
// body is a sequence of frames — record batches in trial order, then
// (when telemetry is on) the canonical registry snapshot, then an end
// marker — so a worker can stream a large shard without materializing
// one giant JSON document, and the coordinator can reject a truncated
// body (no end frame) atomically instead of folding half a shard. The
// outcome tallies are not shipped: the coordinator counts them from the
// records (fault.FinalizeSharded), so they cannot disagree.

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/fault"
	"repro/internal/obs"
)

// maxFrameBytes bounds one frame. The body buffer grows with the bytes
// actually received, so a corrupt length prefix cannot drive an
// allocation by the advertised size either.
const maxFrameBytes = 32 << 20

// recordsPerFrame is the record-batch granule. 256 records is a few
// tens of KB of JSON — small enough to stream, large enough that the
// framing overhead vanishes.
const recordsPerFrame = 256

// writeFrame writes one length-prefixed JSON message.
func writeFrame(w io.Writer, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	if len(b) > maxFrameBytes {
		return fmt.Errorf("shard: frame of %d bytes exceeds limit %d", len(b), maxFrameBytes)
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(b)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err = w.Write(b)
	return err
}

// readFrame reads one length-prefixed JSON message into v. It returns
// io.EOF only on a clean boundary (no bytes read).
func readFrame(r io.Reader, v any) error {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			return io.EOF
		}
		return fmt.Errorf("shard: frame header: %w", err)
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > maxFrameBytes {
		return fmt.Errorf("shard: frame of %d bytes exceeds limit %d", n, maxFrameBytes)
	}
	buf, err := io.ReadAll(io.LimitReader(r, int64(n)))
	if err != nil {
		return fmt.Errorf("shard: frame body: %w", err)
	}
	if len(buf) != int(n) {
		return fmt.Errorf("shard: frame body: %w", io.ErrUnexpectedEOF)
	}
	return json.Unmarshal(buf, v)
}

// completionFrame is one message of a completion stream. Exactly one
// field is set per frame.
type completionFrame struct {
	Records []fault.TrialRecord `json:"records,omitempty"`
	Metrics *obs.RegistryWire   `json:"metrics,omitempty"`
	End     bool                `json:"end,omitempty"`
}

// writeCompletion streams a shard result as completion frames.
func writeCompletion(w io.Writer, sr *fault.ShardResult) error {
	for lo := 0; lo < len(sr.Records); lo += recordsPerFrame {
		hi := lo + recordsPerFrame
		if hi > len(sr.Records) {
			hi = len(sr.Records)
		}
		if err := writeFrame(w, &completionFrame{Records: sr.Records[lo:hi]}); err != nil {
			return err
		}
	}
	if sr.Metrics != nil {
		if err := writeFrame(w, &completionFrame{Metrics: sr.Metrics}); err != nil {
			return err
		}
	}
	return writeFrame(w, &completionFrame{End: true})
}

// readCompletion parses a completion stream, validating that it is
// complete (end frame present, exactly wantRecords records) before
// anything is returned for folding. A stream is rejected as soon as its
// running record total passes wantRecords, so a worker cannot make the
// coordinator buffer more than one lease's records plus one frame.
func readCompletion(r io.Reader, wantRecords int) (*fault.ShardResult, error) {
	sr := &fault.ShardResult{}
	for {
		var f completionFrame
		if err := readFrame(r, &f); err != nil {
			if err == io.EOF {
				return nil, fmt.Errorf("shard: completion stream truncated before end frame")
			}
			return nil, err
		}
		switch {
		case len(f.Records) > 0:
			if len(sr.Records)+len(f.Records) > wantRecords {
				return nil, fmt.Errorf("shard: completion exceeds the %d records the lease covers", wantRecords)
			}
			sr.Records = append(sr.Records, f.Records...)
		case f.Metrics != nil:
			if sr.Metrics != nil {
				return nil, fmt.Errorf("shard: duplicate metrics frame")
			}
			sr.Metrics = f.Metrics
		case f.End:
			if len(sr.Records) != wantRecords {
				return nil, fmt.Errorf("shard: completion has %d records, lease covers %d", len(sr.Records), wantRecords)
			}
			return sr, nil
		default:
			return nil, fmt.Errorf("shard: empty completion frame")
		}
	}
}
