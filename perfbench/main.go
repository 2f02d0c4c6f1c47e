// Command perfbench is the repository's benchmark. One invocation runs one
// named workload in this process for a fixed wall-clock window, checks
// every output against an oracle computed apart from the run, and prints
// one JSON result line: the end-to-end metrics (untraced runs) or, with
// -trace 1, the per-layer metrics (a traced run with CPU and allocation
// profiles). The subcommand "steady" runs the workloads repeatedly and
// prints each end-to-end metric's median, quartiles and spread beside its
// bound in BENCHMARK.json. See README.md for what each number means.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"sdsm/internal/obsv"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "steady" {
		if err := steady(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench steady:", err)
			os.Exit(2)
		}
		return
	}
	// End-to-end numbers come from runs with allocation profiling off;
	// the traced mode switches it on around its traced passes only.
	runtime.MemProfileRate = 0
	// Every workload runs at one P. At two Ps on a 2-vCPU machine the
	// workloads keep both Ps busy (the CCL release fence spins with
	// runtime.Gosched), so a co-tenant busy on one core stretched a pass:
	// apps-ccl 0.48 to 0.94 s, kv-tcp 0.6 to 2.3 s. At one P the same
	// neighbour moves no workload's run_s by more than the spread
	// between runs without it.
	runtime.GOMAXPROCS(1)

	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name: "+workloadNames())
	seed := fs.Int64("seed", 1, "input seed (kv op streams)")
	seconds := fs.Int("seconds", 20, "measurement window in seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced, profiled run")
	chrome := fs.String("chrome", "", "with -trace 1, write the first traced pass's Chrome trace of its first run to this file")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	wl, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %s)\n", *name, workloadNames())
		os.Exit(2)
	}
	if *seconds < 1 || *trace < 0 || *trace > 1 {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be >= 1 and -trace 0 or 1")
		os.Exit(2)
	}

	env := environment(*seed)
	envLine, _ := json.Marshal(map[string]any{"env": env, "workload": *name})
	fmt.Println(string(envLine))

	window := time.Duration(*seconds) * time.Second
	var res result
	if *trace == 1 {
		var err error
		if res, err = runTraced(wl, *seed, window, *chrome); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
	} else {
		res = runUntraced(wl, *seed, window)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// e2eMetrics lists the end-to-end metrics every workload reports, with
// their units; their bounds live in BENCHMARK.json.
var e2eMetrics = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"run_s", "s"},
	{"alloc_mb", "MiB"},
	{"exec_virt_s", "virt_s"},
	{"log_mb", "MiB"},
	{"flushes", "count"},
}

// runUntraced measures whole passes of the workload until the window is
// spent and reports each end-to-end metric's median over the measured
// passes. The first pass warms caches and lazy set-up; it is checked and
// counted as attempted, but not measured.
func runUntraced(wl *workload, seed int64, window time.Duration) result {
	b := newHarness(wl, seed)
	b.pass(false) // warm-up
	samples := map[string][]float64{}
	start := time.Now()
	for n := 0; n < 3 || time.Since(start) < window; n++ {
		ps := b.pass(false)
		for _, m := range e2eMetrics {
			samples[m.name] = append(samples[m.name], ps.v[m.name])
		}
	}
	res := b.result()
	for _, m := range e2eMetrics {
		res.Metrics[m.name] = metric{Value: median(samples[m.name]), Unit: m.unit}
	}
	return res
}

// runTraced alternates untraced and traced passes for the window. The
// per-layer protocol numbers come from the first traced pass alone, so a
// bimodal count (a second diff-fetch round, say) shows as it happened
// rather than averaged away; CPU and allocation attributions are summed
// over every traced pass and reported per pass; trace.overhead_s is the
// median traced run_s minus the median untraced run_s.
func runTraced(wl *workload, seed int64, window time.Duration, chromePath string) (result, error) {
	b := newHarness(wl, seed)
	b.latencies = true
	b.pass(false) // warm-up
	var first *passStats
	var plainRun, tracedRun []float64
	prof := newProfiler()
	start := time.Now()
	for n := 0; n < 2 || time.Since(start) < window; n++ {
		plainRun = append(plainRun, b.pass(false).v["run_s"])
		if err := prof.start(); err != nil {
			return result{}, err
		}
		ps := b.pass(true)
		if err := prof.stop(); err != nil {
			return result{}, err
		}
		tracedRun = append(tracedRun, ps.v["run_s"])
		if first == nil {
			first = ps
		}
	}
	if chromePath != "" && first.collector != nil {
		if err := writeChrome(chromePath, first.collector); err != nil {
			return result{}, err
		}
	}
	costs, err := b.constructorCosts()
	if err != nil {
		return result{}, err
	}
	res := b.result()
	for _, m := range perLayer {
		res.Metrics[m.name] = metric{Value: first.v[m.name], Unit: m.unit}
	}
	for _, vals := range []map[string]float64{prof.perPass(), costs, b.kvQuantiles(),
		{"trace.overhead_s": median(tracedRun) - median(plainRun)}} {
		for name, v := range vals {
			m, ok := res.Metrics[name]
			if !ok {
				return result{}, fmt.Errorf("metric %s is not in the per-layer list", name)
			}
			m.Value = v
			res.Metrics[name] = m
		}
	}
	return res, nil
}

func writeChrome(path string, c *obsv.Collector) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("chrome trace: %w", err)
	}
	if err := obsv.WriteChromeTrace(f, c); err != nil {
		f.Close()
		return fmt.Errorf("chrome trace: %w", err)
	}
	return f.Close()
}

// environment stamps a result with where it came from.
func environment(seed int64) map[string]any {
	commit := os.Getenv("PERFBENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	return map[string]any{
		"go":         runtime.Version(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"cpu":        cpuModel(),
		"commit":     commit,
		"seed":       seed,
	}
}

// cpuModel reads the first "model name" of /proc/cpuinfo; "unknown" where
// that file does not exist.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	data, err := io.ReadAll(io.LimitReader(f, 1<<16))
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
