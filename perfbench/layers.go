package main

import (
	"runtime"
	"strings"
	"time"

	"sdsm/internal/apps/kv"
	"sdsm/internal/bench"
	"sdsm/internal/core"
	"sdsm/internal/hlrc"
	"sdsm/internal/memory"
	"sdsm/internal/recovery"
	"sdsm/internal/simtime"
	"sdsm/internal/stable"
	"sdsm/internal/transport"
	"sdsm/internal/transport/tcp"
)

// modules are the repository's layers, named after their packages under
// sdsm/internal (tcp is transport/tcp). CPU and allocation profiles are
// attributed to the innermost frame of one of these packages; frames of
// the remaining packages (simtime, vclock, arena, fault, ...) go to
// sdsm_other, and the benchmark's own frames to bench.
var modules = []string{
	"apps", "core", "hlrc", "memory", "wal", "stable", "checkpoint",
	"recovery", "transport", "tcp", "obsv", "logview", "sdsm_other", "bench",
}

// perLayer lists every per-layer metric with its unit. BENCHMARK.json's
// per_layer list is the same set. Times on the simulated cluster's
// virtual clock are in virt_s (virt_us); s is wall-clock time.
var perLayer = func() []struct{ name, unit string } {
	var out []struct{ name, unit string }
	add := func(unit string, names ...string) {
		for _, n := range names {
			out = append(out, struct{ name, unit string }{n, unit})
		}
	}
	add("s", "core.setup_s", "core.teardown_s",
		"transport.new_network_s", "memory.new_page_tables_s", "stable.new_depot_s", "tcp.new_fabric_s")
	add("MiB", "transport.new_network_mb", "memory.new_page_tables_mb")
	for _, m := range modules {
		add("s", "cpu."+m+"_s")
	}
	add("s", "cpu.runtime_gc_s", "cpu.runtime_sched_s")
	for _, m := range modules {
		add("MiB", "alloc."+m+"_mb")
	}
	add("MiB", "alloc.runtime_mb")
	add("virt_s", "critpath.compute_virt_s", "critpath.coherence_virt_s", "critpath.logging_virt_s",
		"critpath.fault_virt_s", "critpath.other_virt_s")
	add("count", "hlrc.faults", "hlrc.page_fetches", "hlrc.twins", "hlrc.diffs_created",
		"hlrc.diffs_applied", "hlrc.lock_acquires", "hlrc.barriers", "hlrc.intervals", "hlrc.net_msgs")
	add("MiB", "hlrc.diff_mb_sent", "hlrc.net_mb")
	add("virt_s", "hlrc.fetch_virt_s", "hlrc.lock_stall_virt_s", "hlrc.barrier_stall_virt_s")
	add("count", "wal.log_appends")
	add("virt_s", "stable.flush_disk_virt_s", "stable.flush_stall_virt_s")
	add("count", "stable.reads")
	add("MiB", "stable.read_mb", "stable.checkpoint_mb")
	// The recovery phases each scheme can spend time in on these
	// workloads: tail sync and home rebuild need a torn log, catch-up a
	// churn run, and ML fetches no diffs or pages from an intact log.
	for _, ph := range []recovery.Phase{recovery.PhaseLogRead, recovery.PhaseReplay} {
		add("virt_s", phaseMetric("ml", ph))
	}
	for _, ph := range []recovery.Phase{recovery.PhaseLogRead, recovery.PhaseDiffFetch, recovery.PhasePageFetch, recovery.PhaseReplay} {
		add("virt_s", phaseMetric("ccl", ph))
	}
	add("s", "recovery.ml.run_s", "recovery.ccl.run_s")
	add("count", "recovery.ccl.diff_fetch_rounds", "recovery.ccl.log_reads")
	add("virt_s", "ml_recovery_virt_s", "ccl_recovery_virt_s")
	add("count", "tcp.frames", "tcp.batches", "tcp.reconnects")
	add("MiB", "tcp.wire_mb")
	for _, a := range []string{"3d-fft", "mg", "shallow", "water"} {
		add("s", "app."+a+".run_s")
		add("virt_s", "app."+a+".exec_virt_s", "app."+a+".ccl_recovery_virt_s")
	}
	add("ops/virt_s", "kv_tps_virt")
	add("virt_us", "kv_read_p50_us", "kv_read_p99_us", "kv_write_p50_us", "kv_write_p99_us")
	add("count", "kv_read_samples", "kv_write_samples")
	add("s", "trace.overhead_s")
	return out
}()

// classify names the bucket of a stack given leaf-first function names:
// the innermost sdsm/internal package, else the benchmark's own code,
// else the runtime's garbage collector or (everything else without a
// repository frame) its scheduler and system calls.
func classify(funcs []string, allocation bool) string {
	for _, f := range funcs {
		if rest, ok := strings.CutPrefix(f, "sdsm/internal/"); ok {
			pkg, _, _ := strings.Cut(rest, ".")
			if strings.HasPrefix(pkg, "transport/tcp") {
				return "tcp"
			}
			top, _, _ := strings.Cut(pkg, "/")
			for _, m := range modules {
				if m == top {
					return m
				}
			}
			return "sdsm_other"
		}
	}
	for _, f := range funcs {
		if strings.HasPrefix(f, "main.") {
			return "bench"
		}
	}
	if allocation {
		return "runtime"
	}
	for _, f := range funcs {
		for _, p := range []string{"runtime.gc", "runtime.bgsweep", "runtime.bgscavenge", "runtime.markroot", "runtime.scanobject", "runtime.sweepone"} {
			if strings.HasPrefix(f, p) {
				return "runtime_gc"
			}
		}
	}
	return "runtime_sched"
}

// totalAlloc returns the bytes allocated on the heap so far.
func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// clusterShape is the size of one cluster a pass builds.
type clusterShape struct {
	nodes, pages, pageSize int
	tcp                    bool
}

// shapes lists the clusters one pass of the workload builds.
func (b *harness) shapes() []clusterShape {
	switch b.wl.name {
	case "kv-tcp", "kv-sim":
		kc := kv.Config{ValueSize: 32, Ops: kvOps}
		cc := bench.KVCoreConfig(kvNodes, kc, core.TransportSim)
		return []clusterShape{{kvNodes, cc.NumPages, cc.PageSize, b.wl.name == "kv-tcp"}}
	}
	perApp := 1
	if b.wl.name == "apps-recovery" {
		perApp = 4
	}
	var out []clusterShape
	for _, w := range b.apps {
		for i := 0; i < perApp; i++ {
			out = append(out, clusterShape{appNodes, w.Pages, w.PageSize, false})
		}
	}
	return out
}

// constructorCosts calls, on their own, the constructors a cluster build
// uses, at the sizes one pass builds, and reports the per-pass wall time
// and heap bytes of each (the median of five repetitions).
func (b *harness) constructorCosts() (map[string]float64, error) {
	const reps = 5
	samples := map[string][]float64{}
	model := simtime.DefaultCostModel()
	for r := 0; r < reps; r++ {
		sum := map[string]float64{}
		timed := func(name string, withBytes bool, fn func()) {
			a0 := totalAlloc()
			t0 := time.Now()
			fn()
			sum[name+"_s"] += time.Since(t0).Seconds()
			if withBytes {
				sum[name+"_mb"] += mib(int64(totalAlloc() - a0))
			}
		}
		for _, sh := range b.shapes() {
			var nw *transport.Network
			timed("transport.new_network", true, func() { nw = transport.NewNetwork(sh.nodes, model) })
			timed("memory.new_page_tables", true, func() {
				for i := 0; i < sh.nodes; i++ {
					memory.NewPageTable(sh.pages, sh.pageSize)
				}
			})
			timed("stable.new_depot", false, func() { stable.NewDepot(sh.nodes) })
			if sh.tcp {
				var fab *tcp.Fabric
				var err error
				timed("tcp.new_fabric", false, func() {
					fab, err = tcp.New(nw, tcp.Options{Payloads: hlrc.WirePayloads()})
				})
				if err != nil {
					return nil, err
				}
				nw.SetFabric(fab)
				if err := nw.CloseFabric(); err != nil {
					return nil, err
				}
			}
		}
		for _, name := range []string{"transport.new_network_s", "transport.new_network_mb",
			"memory.new_page_tables_s", "memory.new_page_tables_mb", "stable.new_depot_s", "tcp.new_fabric_s"} {
			samples[name] = append(samples[name], sum[name])
		}
	}
	out := map[string]float64{}
	for name, xs := range samples {
		out[name] = median(xs)
	}
	return out, nil
}
