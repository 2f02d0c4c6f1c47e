package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sdsm/internal/apps"
	"sdsm/internal/apps/kv"
	"sdsm/internal/bench"
	"sdsm/internal/core"
	"sdsm/internal/logview"
	"sdsm/internal/obsv"
	"sdsm/internal/recovery"
	"sdsm/internal/wal"
)

const (
	appNodes  = 8 // the paper's cluster size
	victim    = appNodes - 1
	kvNodes   = 4
	kvOps     = 400 // transactions per client per pass
	crashPct  = 85  // apps-recovery crash point, % of the victim's sync ops
	diagRelTo = 1e-9
)

// workload is one named input set of the benchmark.
type workload struct {
	name string
	// pass runs one pass: every operation of the workload once.
	pass func(b *harness, ps *passStats)
}

var workloads = map[string]*workload{
	"apps-ccl":      {name: "apps-ccl", pass: appsCCLPass},
	"apps-recovery": {name: "apps-recovery", pass: appsRecoveryPass},
	"kv-tcp":        {name: "kv-tcp", pass: kvPass(core.TransportTCP)},
	"kv-sim":        {name: "kv-sim", pass: kvPass(core.TransportSim)},
}

func workloadNames() string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

// harness is one invocation's state: the inputs, the oracles, and the
// attempted/failed/problem tallies over every pass.
type harness struct {
	wl      *workload
	seed    int64
	apps    []*apps.Workload
	oneNode map[string][]byte // one-node reference images (apps-ccl)

	passes    int
	attempted int64
	failed    int64
	problems  []string

	// latencies collects every kv transaction's latency (traced runs
	// only: the hook runs inside the clients, so untraced runs leave it
	// out of what they time).
	latencies bool
	mu        sync.Mutex
	kvReads   []int64 // virtual latency (ns) of every read transaction
	kvWrites  []int64
}

// passStats holds one pass's measurements by metric name.
type passStats struct {
	trace     bool
	v         map[string]float64
	collector *obsv.Collector // the pass's first traced run, for -chrome
}

func newHarness(wl *workload, seed int64) *harness {
	return &harness{wl: wl, seed: seed, apps: bench.Workloads(appNodes, bench.ScaleMedium)}
}

func (b *harness) problem(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	b.problems = append(b.problems, msg)
	fmt.Fprintln(os.Stderr, "perfbench: check failed:", msg)
}

func (b *harness) result() result {
	return result{
		Correct:   len(b.problems) == 0,
		Attempted: b.attempted,
		Failed:    b.failed,
		Metrics:   map[string]metric{},
	}
}

// pass runs the workload once and returns its measurements.
func (b *harness) pass(trace bool) *passStats {
	ps := &passStats{trace: trace, v: map[string]float64{}}
	b.wl.pass(b, ps)
	b.passes++
	return ps
}

// newCollector returns a fresh trace collector on traced passes, nil
// otherwise.
func (ps *passStats) newCollector(nodes int) *obsv.Collector {
	if !ps.trace {
		return nil
	}
	c := obsv.NewCollector(nodes)
	if ps.collector == nil {
		ps.collector = c
	}
	return c
}

// call runs one Run* entry point with prog wrapped so the first entry into
// and the last exit from the program body are timed. It adds the call's
// set-up, run and teardown wall time and its heap allocation to the pass
// and returns the report (nil when the call failed) and its wall time.
func (b *harness) call(ps *passStats, run func(core.Program) (*core.Report, error), prog core.Program) (*core.Report, float64) {
	var first, last atomic.Int64
	a0 := totalAlloc()
	t0 := time.Now()
	wrapped := func(p *core.Proc) {
		first.CompareAndSwap(0, int64(time.Since(t0)))
		defer func() {
			d := int64(time.Since(t0))
			for {
				l := last.Load()
				if d <= l || last.CompareAndSwap(l, d) {
					return
				}
			}
		}()
		prog(p)
	}
	rep, err := run(wrapped)
	total := time.Since(t0)
	allocated := totalAlloc() - a0
	b.attempted++
	if err != nil {
		b.failed++
		fmt.Fprintln(os.Stderr, "perfbench: operation failed:", err)
		return nil, total.Seconds()
	}
	setup := time.Duration(first.Load())
	ps.v["setup_s"] += setup.Seconds()
	ps.v["run_s"] += (total - setup).Seconds()
	ps.v["core.setup_s"] += setup.Seconds()
	ps.v["core.teardown_s"] += (total - time.Duration(last.Load())).Seconds()
	ps.v["alloc_mb"] += mib(int64(allocated))
	return rep, total.Seconds()
}

// addReport accumulates a report's protocol, logging and storage figures,
// and, on traced runs, the collector's histogram sums and (failure-free
// runs only) the virtual critical path.
func (ps *passStats) addReport(rep *core.Report, c *obsv.Collector, failureFree bool) {
	v := ps.v
	v["exec_virt_s"] += rep.ExecTime.Seconds()
	v["log_mb"] += mib(rep.TotalLogBytes)
	v["flushes"] += float64(rep.TotalFlushes)
	for _, s := range rep.Stats {
		v["hlrc.faults"] += float64(s.Faults)
		v["hlrc.page_fetches"] += float64(s.PageFetches)
		v["hlrc.twins"] += float64(s.TwinsCreated)
		v["hlrc.diffs_created"] += float64(s.DiffsCreated)
		v["hlrc.diff_mb_sent"] += mib(s.DiffBytesSent)
		v["hlrc.diffs_applied"] += float64(s.DiffsApplied)
		v["hlrc.lock_acquires"] += float64(s.LockAcquires)
		v["hlrc.barriers"] += float64(s.Barriers)
		v["hlrc.intervals"] += float64(s.Intervals)
		v["wal.log_appends"] += float64(s.LogAppends)
	}
	v["hlrc.net_msgs"] += float64(rep.NetMsgs)
	v["hlrc.net_mb"] += mib(rep.NetBytes)
	for _, s := range rep.StoreStats {
		v["stable.reads"] += float64(s.Reads)
		v["stable.read_mb"] += mib(s.ReadBytes)
	}
	v["stable.checkpoint_mb"] += mib(rep.CheckpointBytes)
	if f := rep.Fabric; f != nil {
		v["tcp.frames"] += float64(f.Frames)
		v["tcp.batches"] += float64(f.Batches)
		v["tcp.wire_mb"] += mib(f.WireBytes)
		v["tcp.reconnects"] += float64(f.Reconnects)
	}
	if c == nil {
		return
	}
	histSec := func(id obsv.HistID) float64 { return float64(c.MergedHist(id).Sum) / 1e9 }
	v["hlrc.fetch_virt_s"] += histSec(obsv.HistFetchLatency)
	v["hlrc.lock_stall_virt_s"] += histSec(obsv.HistLockStall)
	v["hlrc.barrier_stall_virt_s"] += histSec(obsv.HistBarrierStall)
	v["stable.flush_disk_virt_s"] += histSec(obsv.HistFlushDisk)
	v["stable.flush_stall_virt_s"] += histSec(obsv.HistFlushStall)
	if !failureFree {
		return
	}
	cp, err := c.CriticalPath(rep.NodeTimes)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: critical path:", err)
		return
	}
	for _, cat := range []obsv.Cat{obsv.CatCompute, obsv.CatCoherence, obsv.CatLogging, obsv.CatFault, obsv.CatOther} {
		v["critpath."+cat.String()+"_virt_s"] += cp.Dur[cat].Seconds()
	}
}

// appKey is an application's name as used in metric names.
func appKey(w *apps.Workload) string { return strings.ToLower(w.Name) }

// appsCCLPass runs the four paper applications failure-free under CCL
// with no checkpoints (the paper's Table 2 configuration).
func appsCCLPass(b *harness, ps *passStats) {
	if b.oneNode == nil {
		b.oneNodeImages()
	}
	for _, w := range b.apps {
		c := ps.newCollector(appNodes)
		cfg := w.BaseConfig(appNodes)
		cfg.Protocol = wal.ProtocolCCL
		cfg.SkipInitialCheckpoint = true
		cfg.Trace = c
		rep, wall := b.call(ps, func(p core.Program) (*core.Report, error) { return core.Run(cfg, p) }, w.Prog)
		if rep == nil {
			continue
		}
		ps.addReport(rep, c, true)
		ps.v["app."+appKey(w)+".run_s"] += wall
		ps.v["app."+appKey(w)+".exec_virt_s"] += rep.ExecTime.Seconds()
		img := rep.MemoryImage()
		if err := w.Check(img); err != nil {
			b.problem("%s: %v", w.Name, err)
		}
		ref, ok := b.oneNode[w.Name]
		if !ok {
			continue
		}
		if err := matchOneNode(ref, img, w.PageSize); err != nil {
			b.problem("%s: %v", w.Name, err)
		}
		if b.passes == 0 {
			// A corrupted array byte and a corrupted diagnostic must both
			// be rejected; the diagnostic's top byte (sign and exponent)
			// is flipped, as a low mantissa bit stays within tolerance.
			for _, off := range []int{len(img) / 3, len(img) - w.PageSize + 7} {
				bad := append([]byte(nil), img...)
				bad[off] ^= 0x40
				if matchOneNode(ref, bad, w.PageSize) == nil {
					b.problem("self-test: %s image corrupted at byte %d passed the one-node check", w.Name, off)
				}
			}
		}
	}
}

// oneNodeImages runs 3D-FFT, MG and Shallow on one node: the same kernel
// instances (identical layout), every page homed at node 0, no logging.
// Their images are the reference the 8-node images must reproduce.
func (b *harness) oneNodeImages() {
	b.oneNode = map[string][]byte{}
	for _, w := range b.apps {
		if !w.Deterministic {
			continue
		}
		cfg := w.BaseConfig(1)
		cfg.Homes = nil
		cfg.Protocol = wal.ProtocolNone
		rep, err := core.Run(cfg, w.Prog)
		if err != nil {
			b.problem("one-node reference %s: %v", w.Name, err)
			continue
		}
		b.oneNode[w.Name] = rep.MemoryImage()
	}
}

// matchOneNode compares an image with the one-node run of the same kernel
// instance. The three barrier kernels lay out their shared arrays first,
// then one page of per-node partial results, then one page of published
// diagnostics (FFT checksums, MG residual norms, Shallow per-step sums).
// The arrays must be bit-identical; the diagnostics are reductions whose
// summation grouping depends on the node count, so they must agree within
// a relative 1e-9; the per-node partials are not comparable.
func matchOneNode(ref, img []byte, pageSize int) error {
	if len(ref) != len(img) {
		return fmt.Errorf("image is %d bytes, one-node image %d", len(img), len(ref))
	}
	fields := len(img) - 2*pageSize
	if i := firstDiff(ref[:fields], img[:fields]); i >= 0 {
		return fmt.Errorf("shared arrays differ from the one-node run at byte %d", i)
	}
	for off := len(img) - pageSize; off+8 <= len(img); off += 8 {
		a := math.Float64frombits(binary.LittleEndian.Uint64(ref[off:]))
		g := math.Float64frombits(binary.LittleEndian.Uint64(img[off:]))
		if a != g && !(math.Abs(a-g) <= diagRelTo*math.Max(math.Abs(a), math.Abs(g))) {
			return fmt.Errorf("diagnostic at byte %d is %g, one-node run %g", off, g, a)
		}
	}
	return nil
}

func firstDiff(a, b []byte) int {
	if bytes.Equal(a, b) {
		return -1
	}
	for i := range a {
		if a[i] != b[i] {
			return i
		}
	}
	return len(a)
}

// appsRecoveryPass runs, for each application and for each of ML and CCL,
// a failure-free run (the golden image and the victim's op count) and a
// run in which node 7 fail-stops at 85% of its sync ops and is recovered
// offline by the matching scheme.
func appsRecoveryPass(b *harness, ps *passStats) {
	schemes := []struct {
		key   string
		proto wal.Protocol
		kind  recovery.Kind
	}{
		{"ml", wal.ProtocolML, recovery.MLRecovery},
		{"ccl", wal.ProtocolCCL, recovery.CCLRecovery},
	}
	for _, w := range b.apps {
		for _, sc := range schemes {
			c := ps.newCollector(appNodes)
			cfg := w.BaseConfig(appNodes)
			cfg.Protocol = sc.proto
			cfg.Trace = c
			gold, wall := b.call(ps, func(p core.Program) (*core.Report, error) { return core.Run(cfg, p) }, w.Prog)
			if gold == nil {
				continue
			}
			ps.addReport(gold, c, false)
			ps.v["app."+appKey(w)+".run_s"] += wall
			ps.v["app."+appKey(w)+".exec_virt_s"] += gold.ExecTime.Seconds()
			if err := w.Check(gold.MemoryImage()); err != nil {
				b.problem("%s/%s failure-free: %v", w.Name, sc.key, err)
			}

			atOp := gold.NodeOps[victim] * crashPct / 100
			if atOp < 1 {
				atOp = w.CrashOp
			}
			c = ps.newCollector(appNodes)
			cfg.Trace = c
			plan := core.CrashPlan{Victim: victim, AtOp: atOp, Recovery: sc.kind}
			crep, wall := b.call(ps, func(p core.Program) (*core.Report, error) { return core.RunWithCrash(cfg, p, plan) }, w.Prog)
			if crep == nil {
				continue
			}
			ps.addReport(crep, c, false)
			ps.v["app."+appKey(w)+".run_s"] += wall
			ps.v["app."+appKey(w)+".exec_virt_s"] += crep.ExecTime.Seconds()
			ps.v["recovery."+sc.key+".run_s"] += wall
			rr := crep.Recovery
			ps.v[sc.key+"_recovery_virt_s"] += rr.ReplayTime.Seconds()
			if sc.kind == recovery.CCLRecovery {
				ps.v["app."+appKey(w)+".ccl_recovery_virt_s"] += rr.ReplayTime.Seconds()
				ps.v["recovery.ccl.diff_fetch_rounds"] += float64(rr.Phases.Ops[recovery.PhaseDiffFetch])
				ps.v["recovery.ccl.log_reads"] += float64(rr.Phases.Ops[recovery.PhaseLogRead])
			}
			for ph, d := range rr.Phases.Dur {
				ps.v[phaseMetric(sc.key, recovery.Phase(ph))] += d.Seconds()
			}

			img := crep.MemoryImage()
			if w.Deterministic {
				if i := firstDiff(gold.MemoryImage(), img); i >= 0 {
					b.problem("%s/%s: recovered image differs from the failure-free image at byte %d", w.Name, sc.key, i)
				}
				if b.passes == 0 {
					bad := append([]byte(nil), img...)
					bad[len(bad)/2] ^= 1
					if firstDiff(gold.MemoryImage(), bad) < 0 {
						b.problem("self-test: corrupted %s image matched the failure-free image", w.Name)
					}
				}
			} else if err := w.Check(img); err != nil {
				b.problem("%s/%s recovered: %v", w.Name, sc.key, err)
			}
		}
	}
}

func phaseMetric(scheme string, ph recovery.Phase) string {
	return "recovery." + scheme + "." + strings.ReplaceAll(ph.String(), "-", "_") + "_virt_s"
}

// kvPass returns the pass of a kv serving workload: four closed-loop
// clients, one per node, each issuing kvOps transactions (zipf 1.2 over
// 64 keys, 80% reads, 32-byte values) from a seeded op stream.
func kvPass(tr core.Transport) func(b *harness, ps *passStats) {
	return func(b *harness, ps *passStats) {
		kc := kv.Config{
			ValueSize: 32,
			Ops:       kvOps,
			ReadPct:   80,
			ZipfS:     1.2,
			Seed:      b.kvSeed(),
		}
		if b.latencies {
			kc.OnOp = b.onOp
		}
		c := ps.newCollector(kvNodes)
		cc := bench.KVCoreConfig(kvNodes, kc, tr)
		cc.Trace = c
		rep, _ := b.call(ps, func(p core.Program) (*core.Report, error) { return core.Run(cc, p) }, kv.Prog(kc))
		// The operations are the transactions: one Run call counted one.
		txs := int64(kvNodes * kvOps)
		b.attempted += txs - 1
		if rep == nil {
			b.failed += txs - 1
			return
		}
		ps.addReport(rep, c, true)
		ps.v["kv_tps_virt"] = float64(txs) / rep.ExecTime.Seconds()
		img := rep.MemoryImage()
		if err := kv.Check(kc, kvNodes, img); err != nil {
			b.problem("kv: %v", err)
		}
		if _, err := logview.Audit(rep.Depot, logview.AuditOptions{}); err != nil {
			b.problem("kv log audit: %v", err)
		}
		if b.passes == 0 {
			// Drop one committed write: key 0 (the hottest) loses a version.
			bad := append([]byte(nil), img...)
			binary.LittleEndian.PutUint64(bad, binary.LittleEndian.Uint64(bad)-1)
			if kv.Check(kc, kvNodes, bad) == nil {
				b.problem("self-test: kv image with a dropped write passed kv.Check")
			}
		}
	}
}

// kvSeed derives the pass's op-stream seed from the benchmark seed, so a
// run covers a different stream per pass and the same seed always yields
// the same streams.
func (b *harness) kvSeed() int64 {
	s := b.seed*1_000_003 + int64(b.passes) + 1
	if s == 0 {
		s = 1
	}
	return s
}

func (b *harness) onOp(r kv.OpRecord) {
	b.mu.Lock()
	if r.Write {
		b.kvWrites = append(b.kvWrites, int64(r.Latency))
	} else {
		b.kvReads = append(b.kvReads, int64(r.Latency))
	}
	b.mu.Unlock()
}

// kvQuantiles returns the exact latency quantiles over every transaction
// of the run and the sample counts (all zero on the apps workloads).
func (b *harness) kvQuantiles() map[string]float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := map[string]float64{}
	for _, s := range []struct {
		name string
		lat  []int64
	}{{"read", b.kvReads}, {"write", b.kvWrites}} {
		sort.Slice(s.lat, func(i, j int) bool { return s.lat[i] < s.lat[j] })
		out["kv_"+s.name+"_samples"] = float64(len(s.lat))
		out["kv_"+s.name+"_p50_us"] = quantile(s.lat, 0.50) / 1e3
		out["kv_"+s.name+"_p99_us"] = quantile(s.lat, 0.99) / 1e3
	}
	return out
}

// quantile is the nearest-rank q-quantile of sorted xs (0 when empty).
func quantile(xs []int64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	r := int(math.Ceil(q*float64(len(xs)))) - 1
	if r < 0 {
		r = 0
	}
	return float64(xs[r])
}

func mib(b int64) float64 { return float64(b) / (1 << 20) }
