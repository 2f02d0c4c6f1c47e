package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"runtime/pprof"
)

// memProfileRate is the allocation sampling interval of traced passes.
const memProfileRate = 64 << 10

// profiler collects a CPU profile and allocation samples over the traced
// passes and attributes both to modules (see classify).
type profiler struct {
	buf     bytes.Buffer
	cpu     map[string]float64 // seconds per bucket
	passes  int
	memBase map[[32]uintptr]float64 // allocation bytes per stack before the first traced pass
}

func newProfiler() *profiler {
	p := &profiler{cpu: map[string]float64{}}
	p.memBase = allocByStack()
	return p
}

func (p *profiler) start() error {
	p.buf.Reset()
	runtime.MemProfileRate = memProfileRate
	return pprof.StartCPUProfile(&p.buf)
}

func (p *profiler) stop() error {
	pprof.StopCPUProfile()
	runtime.MemProfileRate = 0
	p.passes++
	return attributeCPU(p.buf.Bytes(), p.cpu)
}

// perPass returns every cpu.* and alloc.* metric averaged over the traced
// passes.
func (p *profiler) perPass() map[string]float64 {
	out := map[string]float64{}
	n := float64(p.passes)
	for _, m := range modules {
		out["cpu."+m+"_s"] = p.cpu[m] / n
		out["alloc."+m+"_mb"] = 0
	}
	out["cpu.runtime_gc_s"] = p.cpu["runtime_gc"] / n
	out["cpu.runtime_sched_s"] = p.cpu["runtime_sched"] / n
	out["alloc.runtime_mb"] = 0
	for stk, bytes := range allocByStack() {
		bytes -= p.memBase[stk]
		if bytes <= 0 {
			continue
		}
		out["alloc."+classify(stackFuncs(stk[:]), true)+"_mb"] += bytes / (1 << 20) / n
	}
	return out
}

// allocByStack returns the estimated bytes allocated so far per sampled
// stack, unsampled the way pprof does it.
func allocByStack() map[[32]uintptr]float64 {
	runtime.GC() // publish the latest allocation samples
	var recs []runtime.MemProfileRecord
	n, _ := runtime.MemProfile(nil, true)
	for {
		recs = make([]runtime.MemProfileRecord, n+50)
		var ok bool
		n, ok = runtime.MemProfile(recs, true)
		if ok {
			recs = recs[:n]
			break
		}
	}
	out := map[[32]uintptr]float64{}
	for _, r := range recs {
		if r.AllocObjects == 0 {
			continue
		}
		avg := float64(r.AllocBytes) / float64(r.AllocObjects)
		scale := 1 / (1 - math.Exp(-avg/memProfileRate))
		out[r.Stack0] += float64(r.AllocBytes) * scale
	}
	return out
}

// stackFuncs symbolizes a sampled stack, leaf first, inlined frames
// included.
func stackFuncs(pcs []uintptr) []string {
	var out []string
	for i, pc := range pcs {
		if pc == 0 {
			pcs = pcs[:i]
			break
		}
	}
	frames := runtime.CallersFrames(pcs)
	for {
		f, more := frames.Next()
		out = append(out, f.Function)
		if !more {
			return out
		}
	}
}

// attributeCPU decodes a gzipped pprof CPU profile and adds each sample's
// CPU time to the bucket of its stack.
func attributeCPU(gz []byte, into map[string]float64) error {
	if len(gz) == 0 {
		return nil
	}
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	prof, err := parseProfile(data)
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	for _, s := range prof.samples {
		if len(s.values) == 0 {
			continue
		}
		var funcs []string
		for _, id := range s.locs {
			for _, fid := range prof.locLines[id] {
				if idx := prof.funcName[fid]; idx >= 0 && int(idx) < len(prof.strings) {
					funcs = append(funcs, prof.strings[idx])
				}
			}
		}
		// The last sample value is CPU time in nanoseconds.
		into[classify(funcs, false)] += float64(s.values[len(s.values)-1]) / 1e9
	}
	return nil
}

// profileData is the part of a pprof profile the attribution reads.
type profileData struct {
	samples  []profSample
	locLines map[uint64][]uint64 // location id -> function ids, innermost first
	funcName map[uint64]int64    // function id -> string table index
	strings  []string
}

type profSample struct {
	locs   []uint64
	values []int64
}

// parseProfile decodes the pprof protobuf message (profile.proto): only
// samples, locations, functions and the string table.
func parseProfile(data []byte) (*profileData, error) {
	p := &profileData{locLines: map[uint64][]uint64{}, funcName: map[uint64]int64{}}
	err := eachField(data, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 2: // sample
			var s profSample
			err := eachField(b, func(num int, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					return appendVarints(&s.locs, wire, v, b)
				case 2:
					var vals []uint64
					if err := appendVarints(&vals, wire, v, b); err != nil {
						return err
					}
					for _, x := range vals {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4: // location
			var id uint64
			var funcs []uint64
			err := eachField(b, func(num int, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(num int, wire int, v uint64, _ []byte) error {
						if num == 1 {
							funcs = append(funcs, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locLines[id] = funcs
			return err
		case 5: // function
			var id uint64
			var name int64 = -1
			err := eachField(b, func(num int, wire int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.funcName[id] = name
			return err
		case 6: // string table
			p.strings = append(p.strings, string(b))
		}
		return nil
	})
	return p, err
}

// appendVarints appends a repeated varint field, packed or not.
func appendVarints(dst *[]uint64, wire int, v uint64, b []byte) error {
	if wire == 0 {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errBadProto
		}
		*dst = append(*dst, x)
		b = b[n:]
	}
	return nil
}

var errBadProto = errors.New("malformed protobuf")

// eachField calls fn for every field of a protobuf message: varint
// fields with their value, length-delimited fields with their bytes.
// Fixed-width fields are skipped.
func eachField(data []byte, fn func(num int, wire int, v uint64, b []byte) error) error {
	for len(data) > 0 {
		key, n := binary.Uvarint(data)
		if n <= 0 {
			return errBadProto
		}
		data = data[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(data)
			if n <= 0 {
				return errBadProto
			}
			data = data[n:]
		case 1:
			if len(data) < 8 {
				return errBadProto
			}
			data = data[8:]
			continue
		case 2:
			l, n := binary.Uvarint(data)
			if n <= 0 || uint64(len(data)-n) < l {
				return errBadProto
			}
			b = data[n : n+int(l)]
			data = data[n+int(l):]
		case 5:
			if len(data) < 4 {
				return errBadProto
			}
			data = data[4:]
			continue
		default:
			return errBadProto
		}
		if err := fn(num, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}
