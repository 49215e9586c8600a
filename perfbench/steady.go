package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// runSteady is the steadiness report: it runs every workload, or only
// the one named, reps times, alternating the workload order between
// rounds, each run a fresh process with its own seed, and prints for
// every end-to-end metric its median, quartiles and spread — the
// quartile distance as a share of the median — against its bound:
// BENCHMARK.json's for the summary metrics, setup_s included, and the
// latencies table's for the request latencies.
// failed_op_share must be 0 in every run. sim.instance_spread sits
// beside them, so the per-instance layout effect on host speed is a
// number.
func runSteady(only string, reps int, seconds float64) error {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("perfbench: -steady runs from the checkout root: %w", err)
	}
	type row struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	}
	var spec struct {
		EndToEnd []row `json:"end_to_end"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		return fmt.Errorf("perfbench: reading BENCHMARK.json: %w", err)
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	names := workloadNames()
	if only != "" {
		if _, ok := workloads[only]; !ok {
			return fmt.Errorf("perfbench: unknown workload %q", only)
		}
		names = []string{only}
	}
	values := map[string]map[string][]float64{}
	for rep := 0; rep < reps; rep++ {
		order := append([]string(nil), names...)
		if rep%2 == 1 {
			sort.Sort(sort.Reverse(sort.StringSlice(order)))
		}
		for _, name := range order {
			var out bytes.Buffer
			cmd := exec.Command(exe, "-workload", name, "-seed", strconv.Itoa(1000+rep),
				"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", "0")
			cmd.Stdout, cmd.Stderr = &out, os.Stderr
			if err := cmd.Run(); err != nil {
				return fmt.Errorf("perfbench: %s run %d: %w", name, rep, err)
			}
			if values[name] == nil {
				values[name] = map[string][]float64{}
			}
			// Lines "e2e <name> <value> <unit> ..." carry every end-to-end
			// metric, the summary's and the printed-only ones alike.
			for _, line := range strings.Split(strings.TrimSpace(out.String()), "\n") {
				f := strings.Fields(line)
				if len(f) < 3 || (f[0] != "e2e" && line != "sim instance_spread "+f[2]) {
					continue
				}
				key := f[1]
				if f[0] == "sim" {
					key = "sim.instance_spread"
				}
				if v, err := strconv.ParseFloat(f[2], 64); err == nil {
					values[name][key] = append(values[name][key], v)
				}
			}
			fmt.Fprintf(os.Stderr, "steady: %s run %d done\n", name, rep)
		}
	}
	fmt.Printf("%-18s %-20s %12s %12s %12s %8s %6s  %s\n", "workload", "metric", "q1", "median", "q3", "spread", "bound", "verdict")
	for _, name := range names {
		rows := append([]row(nil), spec.EndToEnd...)
		for _, l := range latencies {
			rows = append(rows, row{Name: l.name, Bound: l.bound})
		}
		rows = append(rows, row{Name: "failed_op_share"}, row{Name: "sim.instance_spread"})
		for _, m := range rows {
			xs := values[name][m.Name]
			if len(xs) < 2 {
				continue
			}
			q1, med, q3 := quartiles(xs)
			spread := 0.0
			if med != 0 {
				spread = (q3 - q1) / med
			}
			verdict := "-"
			switch {
			case m.Name == "failed_op_share" && q3 == 0 && quantile(xs, 1) == 0:
				verdict = "none failed"
			case m.Name == "failed_op_share":
				verdict = "OPS FAILED"
			case m.Bound == 0:
			case spread <= m.Bound/3:
				verdict = "steady"
			case spread <= m.Bound:
				verdict = "within bound"
			default:
				verdict = "TOO NOISY"
			}
			fmt.Printf("%-18s %-20s %12.6g %12.6g %12.6g %8.4f %6.3g  %s\n", name, m.Name, q1, med, q3, spread, m.Bound, verdict)
		}
	}
	return nil
}

// quartiles returns the first quartile, median and third quartile of xs
// by the exclusive method of Python's statistics.quantiles(xs, n=4).
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), quantile(s, 0.5), q(3)
}
