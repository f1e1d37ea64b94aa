package main

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/obs"
)

// span is one timed interval of the traced pass: a call into a layer's
// public function, a build stage reported through core.Config.Reporter,
// or one rung of the serve ladder covering N requests. Times are
// microseconds since the workload's traced pass began; Parent is the ID
// of the span that was open when this one started, 0 for a root.
type span struct {
	Workload string `json:"workload"`
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Name     string `json:"name"`
	StartUS  int64  `json:"start_us"`
	EndUS    int64  `json:"end_us"`
	N        int    `json:"n,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.EndUS-s.StartUS) * time.Microsecond }

// tracer keeps the spans of one workload in memory; main writes them
// out when the benchmark ends. It is also the obs.StageReporter handed
// to core.Build, so the pipeline's stages become children of whichever
// span is open around the call.
type tracer struct {
	mu       sync.Mutex
	workload string
	t0       time.Time
	spans    []span
	open     []int // stack of open span IDs
	counters map[string]int64
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, t0: time.Now(), counters: map[string]int64{}}
}

func (t *tracer) begin(name string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := span{Workload: t.workload, ID: len(t.spans) + 1, Name: name, StartUS: time.Since(t.t0).Microseconds()}
	if len(t.open) > 0 {
		s.Parent = t.open[len(t.open)-1]
	}
	t.spans = append(t.spans, s)
	t.open = append(t.open, s.ID)
	return s.ID
}

// end closes span id and, with it, anything opened after it that was
// left open.
func (t *tracer) end(id int) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	now := time.Since(t.t0).Microseconds()
	for len(t.open) > 0 {
		top := t.open[len(t.open)-1]
		t.open = t.open[:len(t.open)-1]
		t.spans[top-1].EndUS = now
		if top == id {
			break
		}
	}
	return t.spans[id-1].dur()
}

// endN closes span id and records the number of operations it covered.
func (t *tracer) endN(id, n int) {
	t.end(id)
	t.spans[id-1].N = n
}

// do times f as a span.
func (t *tracer) do(name string, f func() error) (time.Duration, error) {
	id := t.begin(name)
	err := f()
	return t.end(id), err
}

func (t *tracer) StageStart(stage string) { t.begin(stage) }

func (t *tracer) StageEnd(stage string, _ time.Duration) {
	t.mu.Lock()
	id := 0
	for i := len(t.open) - 1; i >= 0 && id == 0; i-- {
		if t.spans[t.open[i]-1].Name == stage {
			id = t.open[i]
		}
	}
	t.mu.Unlock()
	if id != 0 {
		t.end(id)
	}
}

func (t *tracer) Count(stage, counter string, delta int64) {
	t.mu.Lock()
	t.counters[stage+"/"+counter] += delta
	t.mu.Unlock()
}

func (t *tracer) Round(stage string, _ int, _ map[string]int64, _ time.Duration) {
	t.Count(stage, "rounds", 1)
}

var _ obs.StageReporter = (*tracer)(nil)

// under returns the duration of the first span called name among the
// descendants of root, 0 when there is none.
func (t *tracer) under(root int, name string) time.Duration {
	for _, s := range t.spans {
		if s.Name != name {
			continue
		}
		for p := s.Parent; p != 0; p = t.spans[p-1].Parent {
			if p == root {
				return s.dur()
			}
		}
	}
	return 0
}

// selfTime is a span's duration minus the part of it its direct
// children cover. Children of one span never overlap here (the traced
// pass is one goroutine), so coverage is their sum.
func (t *tracer) selfTime(id int) time.Duration {
	self := t.spans[id-1].dur()
	for _, s := range t.spans {
		if s.Parent == id {
			self -= s.dur()
		}
	}
	return self
}

// checkNesting reports every span that leaves its parent's interval or
// whose children cover more than the span itself.
func (t *tracer) checkNesting(o *outcome) {
	for _, s := range t.spans {
		if s.Parent != 0 {
			p := t.spans[s.Parent-1]
			o.check(s.StartUS >= p.StartUS && s.EndUS <= p.EndUS,
				"span %s [%d,%d] leaves its parent %s [%d,%d]", s.Name, s.StartUS, s.EndUS, p.Name, p.StartUS, p.EndUS)
		}
		o.check(t.selfTime(s.ID) >= 0, "children of span %s cover %v more than the span", s.Name, -t.selfTime(s.ID))
	}
}

// atMost records a violation unless lo <= hi within a tenth of hi plus
// slack: the ladder checks compare medians of a few thousand in-process
// calls, which repeat to a few percent. slack, in the unit of lo and hi,
// is for sums measured in two processes, whose heaps and GC cycles differ.
func atMost(o *outcome, lo, hi, slack float64, format string, args ...any) {
	o.check(lo <= hi*1.1+slack, "%s: %.4g > %.4g", fmt.Sprintf(format, args...), lo, hi)
}
