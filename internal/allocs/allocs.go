// Package allocs attributes heap allocations to the source lines that
// make them. The zero-allocation tests of the stepping loops run a
// steady-state stretch under Measure and fail on every site that no
// sanctioned grow-to-peak Grow covers, or that outgrows its Grow's
// budget, naming its file:line.
package allocs

import (
	"fmt"
	"os"
	"path"
	"runtime"
	"slices"
	"sort"
	"strings"
)

// A Site is one allocating source line and the objects it allocated.
type Site struct {
	// Func is the package-qualified function the line belongs to, e.g.
	// "nocsim/internal/noc.(*flitQueue).grow" (inlined frames keep their
	// own function).
	Func string
	File string
	Line int
	// Code is the trimmed source line, or "" when the file is unreadable.
	Code  string
	Count int64
}

func (s Site) String() string {
	return fmt.Sprintf("%s:%d: %d allocs in %s: %s", s.File, s.Line, s.Count, s.Func, s.Code)
}

// Measure runs fn with every allocation profiled and returns the sites
// that allocated while it ran, in file:line order. An allocation is
// charged to the innermost frame of its stack inside this module, so a
// growing append, a boxed argument or a call into the standard library
// that allocates names the module line that made it. Allocations by
// other goroutines while fn runs are counted too, except stacks with no
// frame in the module (the runtime's background goroutines). Measure
// sets runtime.MemProfileRate, so two calls must not overlap.
func Measure(fn func()) []Site {
	runtime.GC() // publish every earlier allocation before the baseline
	before := profile()
	old := runtime.MemProfileRate
	runtime.MemProfileRate = 1
	fn()
	runtime.MemProfileRate = old
	runtime.GC() // publish fn's allocations
	after := profile()

	src := map[string][]string{}
	var out []Site
	for k, n := range after {
		if n -= before[k]; n <= 0 || k.fn == profileFunc {
			continue
		}
		out = append(out, Site{Func: k.fn, File: k.file, Line: k.line, Code: sourceLine(src, k.file, k.line), Count: n})
	}
	sortSites(out)
	return out
}

// A Grow sanctions one grow-to-peak allocation: a line of the function
// Func (package-qualified without its import path, e.g.
// "noc.(*NIC).Receive") whose source contains Code. An empty Code
// covers every line of Func. Max bounds the objects the covered lines
// may allocate together over the measured stretch, so a structure that
// stops reaching its high-water mark and allocates every cycle fails.
type Grow struct {
	Func, Code string
	Max        int64
}

// Unsanctioned returns, in file:line order, the sites no grow covers
// and the sites of each grow whose covered lines together allocated
// more than its Max. A site is charged to the first grow that covers
// it.
func Unsanctioned(sites []Site, grows []Grow) []Site {
	var out []Site
	used := make([]int64, len(grows))
	covered := make([][]Site, len(grows))
	for _, s := range sites {
		fn := s.Func[strings.LastIndexByte(s.Func, '/')+1:]
		i := slices.IndexFunc(grows, func(g Grow) bool {
			return g.Func == fn && strings.Contains(s.Code, g.Code)
		})
		if i < 0 {
			out = append(out, s)
			continue
		}
		used[i] += s.Count
		covered[i] = append(covered[i], s)
	}
	for i, g := range grows {
		if used[i] > g.Max {
			out = append(out, covered[i]...)
		}
	}
	sortSites(out)
	return out
}

func sortSites(sites []Site) {
	sort.Slice(sites, func(i, j int) bool {
		if sites[i].File != sites[j].File {
			return sites[i].File < sites[j].File
		}
		return sites[i].Line < sites[j].Line
	})
}

type siteKey struct {
	fn, file string
	line     int
}

// moduleDir is the source root of this module, with a trailing slash.
var moduleDir = func() string {
	_, file, _, _ := runtime.Caller(0)
	return path.Dir(path.Dir(path.Dir(file))) + "/"
}()

// profileFunc is profile's own name: the snapshot Measure takes before
// fn allocates too, and is published with fn's allocations.
const profileFunc = "nocsim/internal/allocs.profile"

// profile sums the published heap profile's allocation counts by site.
func profile() map[siteKey]int64 {
	var recs []runtime.MemProfileRecord
	n, ok := runtime.MemProfile(nil, true)
	for !ok {
		recs = make([]runtime.MemProfileRecord, n+64)
		n, ok = runtime.MemProfile(recs, true)
	}
	out := map[siteKey]int64{}
	for _, r := range recs[:n] {
		frames := runtime.CallersFrames(r.Stack())
		for more := true; more; {
			var f runtime.Frame
			f, more = frames.Next()
			if strings.HasPrefix(f.File, moduleDir) {
				out[siteKey{f.Function, f.File, f.Line}] += r.AllocObjects
				break
			}
		}
	}
	return out
}

// sourceLine returns line of file, trimmed, reading each file once.
func sourceLine(cache map[string][]string, file string, line int) string {
	lines, ok := cache[file]
	if !ok {
		b, _ := os.ReadFile(file)
		lines = strings.Split(string(b), "\n")
		cache[file] = lines
	}
	if line < 1 || line > len(lines) {
		return ""
	}
	return strings.TrimSpace(lines[line-1])
}
