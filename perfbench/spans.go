package main

import (
	"bufio"
	"os"
	"path/filepath"
	"time"

	"nocsim/internal/obs"
)

// tracer records spans around the benchmark's calls into each layer's
// public functions. Spans of one op share the op's id; they stay in
// memory and are written as Chrome trace JSON when the run ends. A
// disabled tracer records nothing and reads no clock.
type tracer struct {
	on    bool
	t0    time.Time
	spans []span
	extra []obs.ChromeEvent
}

type span struct {
	op         int
	name       string
	start, end time.Time
}

func newTracer(on bool) *tracer { return &tracer{on: on, t0: now()} }

// begin opens a span for op and returns its handle (-1 when tracing is
// off). Spans nest by time: the benchmark's client is one goroutine.
func (t *tracer) begin(op int, name string) int {
	if !t.on {
		return -1
	}
	t.spans = append(t.spans, span{op: op, name: name, start: now()})
	return len(t.spans) - 1
}

// end closes the span begin returned.
func (t *tracer) end(i int) {
	if i >= 0 {
		t.spans[i].end = now()
	}
}

// stat is one span name's count and summed duration in ms.
type stat struct {
	n     int
	totMS float64
}

func (s stat) meanMS() float64 {
	if s.n == 0 {
		return 0
	}
	return s.totMS / float64(s.n)
}

func (t *tracer) stats() map[string]stat {
	out := map[string]stat{}
	for _, sp := range t.spans {
		if sp.end.IsZero() {
			continue
		}
		st := out[sp.name]
		st.n++
		st.totMS += float64(sp.end.Sub(sp.start)) / 1e6
		out[sp.name] = st
	}
	return out
}

// nest files a daemon's own job trace under the request span it
// belongs to: the events keep their offsets, re-based at the span's
// start, on the daemon's process track.
func (t *tracer) nest(parent int, pid int64, evs []obs.ChromeEvent) {
	if parent < 0 {
		return
	}
	base := t.spans[parent].start.Sub(t.t0).Microseconds()
	for _, ev := range evs {
		ev.Ts += base
		ev.Pid = pid
		ev.Args = map[string]any{"op": t.spans[parent].op, "daemon": ev.Args}
		t.extra = append(t.extra, ev)
	}
}

// write exports every span as Chrome trace JSON.
func (t *tracer) write(path string) error {
	evs := make([]obs.ChromeEvent, 0, len(t.spans)+len(t.extra))
	for _, sp := range t.spans {
		if sp.end.IsZero() {
			continue
		}
		evs = append(evs, obs.ChromeEvent{
			Name: sp.name, Cat: "bench", Ph: "X",
			Ts: sp.start.Sub(t.t0).Microseconds(), Dur: sp.end.Sub(sp.start).Microseconds(),
			Pid: 1, Tid: 1, Args: map[string]int{"op": sp.op},
		})
	}
	evs = append(evs, t.extra...)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := obs.WriteChromeJSON(w, evs); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
