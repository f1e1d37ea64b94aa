package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
)

// benchmarkFile is BENCHMARK.json: the names, units and bounds the
// driver and compare judge a change by.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []boundedMetric `json:"end_to_end"`
	PerLayer []boundedMetric `json:"per_layer"`
}

type boundedMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// endToEndValues collects, per workload, the values of every untraced
// run's metrics in a report.
func endToEndValues(r Report) map[string]map[string][]float64 {
	out := map[string]map[string][]float64{}
	for _, run := range r.Runs {
		if run.Trace || !run.Correct {
			continue
		}
		if out[run.Workload] == nil {
			out[run.Workload] = map[string][]float64{}
		}
		for name, m := range run.Metrics {
			out[run.Workload][name] = append(out[run.Workload][name], m.Value)
		}
	}
	return out
}

// compareMain implements `perf compare A.json B.json`: one row per
// workload and end-to-end metric, B's median against A's, judged by the
// metric's bound in BENCHMARK.json. It returns the exit code: 1 when
// any metric got worse by more than its bound or B lacks a correct run
// of a workload A has.
func compareMain(args []string, w io.Writer) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	benchPath := fs.String("benchmark", "BENCHMARK.json", "the file holding the bounds")
	if err := fs.Parse(args); err != nil || fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: perf compare [-benchmark BENCHMARK.json] A.json B.json")
		return 2
	}
	var bench benchmarkFile
	var a, b Report
	for path, v := range map[string]any{*benchPath: &bench, fs.Arg(0): &a, fs.Arg(1): &b} {
		if err := readJSON(path, v); err != nil {
			fmt.Fprintln(os.Stderr, "perf compare:", err)
			return 2
		}
	}
	av, bv := endToEndValues(a), endToEndValues(b)
	breaches := 0
	fmt.Fprintf(w, "%-13s %-10s %14s %14s %8s %7s\n", "workload", "metric", "A", "B", "worse", "bound")
	for _, wl := range bench.Workloads {
		if av[wl.Name] == nil {
			continue
		}
		for _, m := range bench.EndToEnd {
			was, ok := av[wl.Name][m.Name]
			if !ok {
				continue
			}
			now, ok := bv[wl.Name][m.Name]
			if !ok {
				fmt.Fprintf(w, "%-13s %-10s missing or incorrect in B\n", wl.Name, m.Name)
				breaches++
				continue
			}
			x, y := median(was), median(now)
			worse := (y - x) / x
			if m.Better == "higher" {
				worse = (x - y) / x
			}
			verdict := ""
			if worse > m.Bound {
				verdict = "  BREACH"
				breaches++
			}
			fmt.Fprintf(w, "%-13s %-10s %14.6g %14.6g %+7.1f%% %6.0f%%%s\n",
				wl.Name, m.Name, x, y, worse*100, m.Bound*100, verdict)
		}
	}
	if breaches > 0 {
		fmt.Fprintf(w, "%d metrics outside their bounds\n", breaches)
		return 1
	}
	return 0
}
