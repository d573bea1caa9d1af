package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Spans are recorded
// from the benchmark's own files, around the calls into each layer;
// the program under test carries no tracing.
type span struct {
	Name string
	// Track is the rank that ran the span; the driver goroutine, which
	// times whole stages, has track -1.
	Track int
	// Start and End are offsets from the recorder's epoch.
	Start, End time.Duration
	// Parent indexes the span that caused this one, -1 at the root.
	Parent int
	// Run identifies the pipeline pass the span belongs to. A workload
	// has one traced pass, so it is always tracedRun.
	Run int
}

const tracedRun = 1

func (s span) dur() time.Duration { return s.End - s.Start }

const driverTrack = -1

// recorder keeps spans in memory until the benchmark ends. Ranks
// record concurrently.
type recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newRecorder() *recorder {
	return &recorder{epoch: time.Now()}
}

// begin opens a span and returns its index; end closes it.
func (r *recorder) begin(name string, track, parent int) int {
	now := time.Since(r.epoch)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Name: name, Track: track, Start: now, End: -1, Parent: parent, Run: tracedRun})
	return len(r.spans) - 1
}

func (r *recorder) end(id int) {
	now := time.Since(r.epoch)
	r.mu.Lock()
	r.spans[id].End = now
	r.mu.Unlock()
}

// time records fn as one span. A nil recorder is tracing off: it only
// runs fn.
func (r *recorder) time(name string, track, parent int, fn func()) {
	if r == nil {
		fn()
		return
	}
	id := r.begin(name, track, parent)
	fn()
	r.end(id)
}

// total sums the durations of the named spans on one track.
func (r *recorder) total(name string, track int) time.Duration {
	var d time.Duration
	for _, s := range r.spans {
		if s.Name == name && s.Track == track {
			d += s.dur()
		}
	}
	return d
}

// checkSpans reports the first malformed span: unclosed, inverted,
// orphaned, or escaping its parent's interval.
func checkSpans(spans []span) error {
	for i, s := range spans {
		if s.End < s.Start || s.Start < 0 {
			return fmt.Errorf("span %d %q: interval [%v, %v]", i, s.Name, s.Start, s.End)
		}
		if s.Parent == -1 {
			continue
		}
		if s.Parent < 0 || s.Parent >= i {
			return fmt.Errorf("span %d %q: parent %d", i, s.Name, s.Parent)
		}
		p := spans[s.Parent]
		if s.Start < p.Start || s.End > p.End {
			return fmt.Errorf("span %d %q escapes parent %q", i, s.Name, p.Name)
		}
		if s.Run != p.Run {
			return fmt.Errorf("span %d %q: run %d under run %d", i, s.Name, s.Run, p.Run)
		}
	}
	return nil
}

// chromeEvent is one entry of the Chrome trace-event format
// (chrome://tracing, Perfetto).
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeChromeTrace writes each workload's traced pass as one process
// with one track per rank plus a driver track.
func writeChromeTrace(path string, rs []result) error {
	var events []chromeEvent
	for pid, r := range rs {
		events = append(events, chromeEvent{Name: "process_name", Ph: "M", Pid: pid, Args: map[string]any{"name": r.Name}})
		named := map[int]bool{}
		for i, s := range r.spans {
			tid := s.Track + 1 // the driver's track -1 becomes thread 0
			if !named[tid] {
				named[tid] = true
				label := "driver"
				if s.Track != driverTrack {
					label = fmt.Sprintf("rank %d", s.Track)
				}
				events = append(events, chromeEvent{Name: "thread_name", Ph: "M", Pid: pid, Tid: tid, Args: map[string]any{"name": label}})
			}
			events = append(events, chromeEvent{
				Name: s.Name, Ph: "X", Pid: pid, Tid: tid,
				Ts:   float64(s.Start.Nanoseconds()) / 1e3,
				Dur:  float64(s.dur().Nanoseconds()) / 1e3,
				Args: map[string]any{"id": i, "parent": s.Parent, "run": s.Run},
			})
		}
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
