package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// benchSpec is the part of BENCHMARK.json the steadiness command reads.
type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// steady runs each workload -runs times per set, each run with its own
// seed, and prints per end-to-end metric the median, quartiles and spread
// ((q3-q1)/median) of each set beside the metric's bound, and how far each
// later set's median moved from the first set's in the worse direction.
// With -traced it then makes one traced run per workload and prints its
// per-layer table. It exits non-zero if a run fails, reports an incorrect
// result, or prints a metric set other than BENCHMARK.json's.
func steady(args []string) error {
	fs := flag.NewFlagSet("steady", flag.ContinueOnError)
	runs := fs.Int("runs", 10, "runs per workload per set")
	sets := fs.Int("sets", 1, "independent sets of runs to compare")
	seconds := fs.Int("seconds", 0, "measurement window per run; 0 takes run_seconds from BENCHMARK.json")
	only := fs.String("workloads", "", "comma-separated workloads; empty runs every workload of BENCHMARK.json")
	seed := fs.Int64("seed", 1, "first seed; run i (from 0) of set s uses seed + s*runs + i")
	traced := fs.Bool("traced", false, "also make one traced run per workload and print its per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return err
	}
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return err
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	if *seconds == 0 {
		*seconds = spec.RunSeconds
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if *only != "" {
		names = strings.Split(*only, ",")
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	e2e := map[string]string{}
	for _, m := range spec.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	layer := map[string]string{}
	for _, m := range spec.PerLayer {
		layer[m.Name] = m.Unit
	}

	for _, w := range names {
		// vals[set][metric] lists the run values; failShare[set] is the
		// share of failed operations over the set.
		vals := make([]map[string][]float64, *sets)
		failShare := make([]string, *sets)
		for s := 0; s < *sets; s++ {
			vals[s] = map[string][]float64{}
			var att, fail int64
			for i := 0; i < *runs; i++ {
				sd := *seed + int64(s**runs+i)
				res, err := runOnce(self, w, sd, *seconds, 0, e2e)
				if err != nil {
					return err
				}
				att += res.Attempted
				fail += res.Failed
				var row []string
				for _, m := range spec.EndToEnd {
					v := res.Metrics[m.Name].Value
					vals[s][m.Name] = append(vals[s][m.Name], v)
					row = append(row, fmt.Sprintf("%s=%.6g", m.Name, v))
				}
				fmt.Printf("%s set %d seed %d attempted %d failed %d  %s\n", w, s+1, sd, res.Attempted, res.Failed, strings.Join(row, " "))
			}
			failShare[s] = fmt.Sprintf("%d/%d", fail, att)
		}
		fmt.Printf("\n%s (%d runs per set, %d s each; failed/attempted per set: %s)\n", w, *runs, *seconds, strings.Join(failShare, ", "))
		fmt.Printf("  %-12s %-6s %3s %12s %12s %12s %8s %6s %8s\n", "metric", "unit", "set", "median", "q1", "q3", "spread", "bound", "drift")
		for _, m := range spec.EndToEnd {
			var first float64
			for s := 0; s < *sets; s++ {
				xs := vals[s][m.Name]
				q1, med, q3 := quartiles(xs)
				drift := "-"
				if s == 0 {
					first = med
				} else if first != 0 {
					d := (med - first) / first
					if m.Better == "higher" {
						d = -d
					}
					drift = fmt.Sprintf("%+.4f", d)
				}
				fmt.Printf("  %-12s %-6s %3d %12.6g %12.6g %12.6g %8.4f %6.3g %8s\n", m.Name, m.Unit, s+1, med, q1, q3, (q3-q1)/med, m.Bound, drift)
			}
		}
		fmt.Println()
	}
	if !*traced {
		return nil
	}
	for _, w := range names {
		res, err := runOnce(self, w, *seed, *seconds, 1, layer)
		if err != nil {
			return err
		}
		fmt.Printf("%s traced (seed %d, %d s):\n", w, *seed, *seconds)
		for _, m := range spec.PerLayer {
			fmt.Printf("  %-40s %14.6g %s\n", m.Name, res.Metrics[m.Name].Value, m.Unit)
		}
		fmt.Println()
	}
	return nil
}

// runOnce runs the benchmark binary once and returns its parsed result,
// which must be correct and carry exactly the wanted metrics (name → unit).
func runOnce(self, workload string, seed int64, seconds, trace int, want map[string]string) (*result, error) {
	cmd := exec.Command(self, "--workload", workload, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.Itoa(seconds), "--trace", strconv.Itoa(trace))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s seed %d: %w", workload, seed, err)
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return nil, fmt.Errorf("%s seed %d: result line: %w", workload, seed, err)
	}
	if !res.Correct {
		return nil, fmt.Errorf("%s seed %d: result not correct", workload, seed)
	}
	if len(res.Metrics) != len(want) {
		return nil, fmt.Errorf("%s seed %d: %d metrics, BENCHMARK.json lists %d", workload, seed, len(res.Metrics), len(want))
	}
	for name, unit := range want {
		m, ok := res.Metrics[name]
		if !ok {
			return nil, fmt.Errorf("%s seed %d: metric %s missing", workload, seed, name)
		}
		if m.Unit != unit {
			return nil, fmt.Errorf("%s seed %d: metric %s in %s, BENCHMARK.json says %s", workload, seed, name, m.Unit, unit)
		}
	}
	return &res, nil
}

// quartiles returns the first quartile, median and third quartile of xs
// by the method of Python's statistics.quantiles(xs, n=4) (exclusive).
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	if ld < 2 {
		if ld == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	m := ld + 1
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}
