package sched

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"

	"repro/internal/des"
)

// ParseTaskSet reads a task-set description, one task per line:
//
//	# comment
//	task NAME C T [D [CRITICALITY]]
//
// Durations use Go syntax (e.g. 500us, 3ms, 1s); D defaults to T and
// criticality to 0 (non-critical). Priorities are left unassigned for
// the caller (deadline-monotonic or criticality).
func ParseTaskSet(r io.Reader) ([]Task, error) {
	var tasks []Task
	sc := bufio.NewScanner(r)
	line := 0
	for sc.Scan() {
		line++
		text := sc.Text()
		if i := strings.IndexByte(text, '#'); i >= 0 {
			text = text[:i]
		}
		fields := strings.Fields(text)
		if len(fields) == 0 {
			continue
		}
		if fields[0] != "task" {
			return nil, fmt.Errorf("sched: line %d: expected 'task', got %q", line, fields[0])
		}
		if len(fields) < 4 || len(fields) > 6 {
			return nil, fmt.Errorf("sched: line %d: task NAME C T [D [CRIT]]", line)
		}
		t := Task{Name: fields[1]}
		var err error
		if t.C, err = parseDur(fields[2]); err != nil {
			return nil, fmt.Errorf("sched: line %d: C: %w", line, err)
		}
		if t.T, err = parseDur(fields[3]); err != nil {
			return nil, fmt.Errorf("sched: line %d: T: %w", line, err)
		}
		t.D = t.T
		if len(fields) >= 5 {
			if t.D, err = parseDur(fields[4]); err != nil {
				return nil, fmt.Errorf("sched: line %d: D: %w", line, err)
			}
		}
		if len(fields) == 6 {
			crit, err := strconv.Atoi(fields[5])
			if err != nil {
				return nil, fmt.Errorf("sched: line %d: criticality: %w", line, err)
			}
			t.Criticality = crit
		}
		tasks = append(tasks, t)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("sched: read: %w", err)
	}
	if err := ValidateSet(tasks); err != nil {
		return nil, err
	}
	return tasks, nil
}

// parseDur converts a Go duration literal to des.Time.
func parseDur(s string) (des.Time, error) {
	d, err := time.ParseDuration(s)
	if err != nil {
		return 0, err
	}
	return des.Time(d.Nanoseconds()), nil
}
