package allocs

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
)

var (
	sink []int
	text string
)

// ring stands in for a grow-to-peak structure such as a NIC queue.
type ring struct{ buf []int }

//go:noinline
func (r *ring) grow() { r.buf = make([]int, 2*len(r.buf)+1) }

var ringGrow = []Grow{{Func: "allocs.(*ring).grow", Code: "r.buf = make(", Max: 3}}

// TestReportsUnsanctionedLine: an allocation outside every sanctioned
// grow site is reported with its file:line and source, also when the
// allocating code is a standard-library call.
func TestReportsUnsanctionedLine(t *testing.T) {
	var r ring
	_, _, line, _ := runtime.Caller(0)
	sites := Measure(func() {
		r.grow()
		sink = make([]int, 8)               // line+3
		text = fmt.Sprint(len(sink) + 1000) // line+4
	})
	bad := Unsanctioned(sites, ringGrow)
	if len(bad) != 2 {
		t.Fatalf("unsanctioned sites %v, want lines %d and %d", bad, line+3, line+4)
	}
	for i, s := range bad {
		if !strings.HasSuffix(s.File, "allocs_test.go") || s.Line != line+3+i {
			t.Errorf("reported %s, want allocs_test.go:%d", s, line+3+i)
		}
	}
	if s := bad[0]; !strings.HasPrefix(s.Code, "sink = make([]int, 8)") || s.Count != 1 {
		t.Errorf("reported %s, want the make line with 1 alloc", s)
	}
}

// TestPassesSanctionedGrow: a closure that allocates only at a
// sanctioned grow site, within its budget, passes, and the site is
// still measured.
func TestPassesSanctionedGrow(t *testing.T) {
	var r ring
	sites := Measure(func() {
		for i := 0; i < 3; i++ {
			r.grow()
		}
	})
	if bad := Unsanctioned(sites, ringGrow); len(bad) != 0 {
		t.Errorf("sanctioned grow reported: %v", bad)
	}
	var n int64
	for _, s := range sites {
		if strings.HasSuffix(s.Func, ".(*ring).grow") {
			n += s.Count
		}
	}
	if n != 3 {
		t.Errorf("measured %d allocs at the grow site, want 3 (sites %v)", n, sites)
	}
}

// TestReportsGrowOverBudget: a sanctioned grow site that allocates more
// than its Max is reported, as a structure that regrows every cycle
// would be.
func TestReportsGrowOverBudget(t *testing.T) {
	var r ring
	sites := Measure(func() {
		for i := 0; i < 4; i++ {
			r.grow()
		}
	})
	bad := Unsanctioned(sites, ringGrow)
	if len(bad) != 1 || !strings.HasSuffix(bad[0].Func, ".(*ring).grow") || bad[0].Count != 4 {
		t.Errorf("over-budget grow reported as %v, want the ring's grow line with 4 allocs", bad)
	}
}
