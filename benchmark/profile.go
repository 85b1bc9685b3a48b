package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"
)

// Host time per layer comes from a runtime/pprof CPU profile of one
// repetition's measured call. A profile is a gzipped protocol buffer;
// this file reads just the messages the attribution needs (samples,
// locations, functions, the string table) with the standard library.

// cpuSample is one profile sample: its stack as function names, leaf
// first (inlined frames included), and the CPU time it stands for.
type cpuSample struct {
	frames []string
	ns     int64
}

// parseProfile decodes a gzipped pprof CPU profile.
func parseProfile(gz []byte) ([]cpuSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type rawSample struct {
		locs   []uint64
		values []int64
	}
	var (
		sampleTypes []int64 // string index of each value's type
		samples     []rawSample
		locFuncs    = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcName    = map[uint64]int64{}    // function id -> string index
		strs        []string
	)
	top := pbuf{b: raw}
	for !top.done() {
		field, wire := top.key()
		switch {
		case field == 1 && wire == 2: // sample_type: ValueType{type=1}
			vt := top.msg()
			var typ int64
			for !vt.done() {
				if f, w := vt.key(); f == 1 && w == 0 {
					typ = int64(vt.varint())
				} else {
					vt.skip(w)
				}
			}
			sampleTypes = append(sampleTypes, typ)
			top.err = errors.Join(top.err, vt.err)
		case field == 2 && wire == 2: // sample: location_id=1, value=2
			sm := top.msg()
			var s rawSample
			for !sm.done() {
				f, w := sm.key()
				switch f {
				case 1:
					s.locs = sm.uints(w, s.locs)
				case 2:
					for _, v := range sm.uints(w, nil) {
						s.values = append(s.values, int64(v))
					}
				default:
					sm.skip(w)
				}
			}
			samples = append(samples, s)
			top.err = errors.Join(top.err, sm.err)
		case field == 4 && wire == 2: // location: id=1, line=4 {function_id=1}
			lm := top.msg()
			var id uint64
			var fns []uint64
			for !lm.done() {
				f, w := lm.key()
				switch {
				case f == 1 && w == 0:
					id = lm.varint()
				case f == 4 && w == 2:
					ln := lm.msg()
					for !ln.done() {
						if lf, lw := ln.key(); lf == 1 && lw == 0 {
							fns = append(fns, ln.varint())
						} else {
							ln.skip(lw)
						}
					}
					lm.err = errors.Join(lm.err, ln.err)
				default:
					lm.skip(w)
				}
			}
			locFuncs[id] = fns
			top.err = errors.Join(top.err, lm.err)
		case field == 5 && wire == 2: // function: id=1, name=2
			fm := top.msg()
			var id uint64
			var name int64
			for !fm.done() {
				f, w := fm.key()
				switch {
				case f == 1 && w == 0:
					id = fm.varint()
				case f == 2 && w == 0:
					name = int64(fm.varint())
				default:
					fm.skip(w)
				}
			}
			funcName[id] = name
			top.err = errors.Join(top.err, fm.err)
		case field == 6 && wire == 2: // string_table
			strs = append(strs, string(top.bytes()))
		default:
			top.skip(wire)
		}
	}
	if top.err != nil {
		return nil, fmt.Errorf("profile: %w", top.err)
	}
	str := func(i int64) string {
		if i < 0 || i >= int64(len(strs)) {
			return ""
		}
		return strs[i]
	}
	// CPU profiles carry (samples, cpu nanoseconds); take the cpu value.
	vi := len(sampleTypes) - 1
	for i, t := range sampleTypes {
		if str(t) == "cpu" {
			vi = i
		}
	}
	if vi < 0 {
		return nil, errors.New("profile: no sample types")
	}
	out := make([]cpuSample, 0, len(samples))
	for _, s := range samples {
		if vi >= len(s.values) {
			return nil, errors.New("profile: sample without a cpu value")
		}
		cs := cpuSample{ns: s.values[vi]}
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				cs.frames = append(cs.frames, str(funcName[fn]))
			}
		}
		out = append(out, cs)
	}
	return out, nil
}

// pbuf reads protocol-buffer wire format. The first malformed read sets
// err and ends the message.
type pbuf struct {
	b   []byte
	err error
}

func (d *pbuf) done() bool { return d.err != nil || len(d.b) == 0 }

func (d *pbuf) fail(msg string) {
	if d.err == nil {
		d.err = errors.New(msg)
	}
	d.b = nil
}

func (d *pbuf) varint() uint64 {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(d.b) == 0 {
			break
		}
		c := d.b[0]
		d.b = d.b[1:]
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v
		}
	}
	d.fail("truncated varint")
	return 0
}

// key reads a field key: the field number and the wire type.
func (d *pbuf) key() (field, wire int) {
	k := d.varint()
	return int(k >> 3), int(k & 7)
}

func (d *pbuf) bytes() []byte {
	n := d.varint()
	if n > uint64(len(d.b)) {
		d.fail("truncated field")
		return nil
	}
	v := d.b[:n]
	d.b = d.b[n:]
	return v
}

// msg reads an embedded message.
func (d *pbuf) msg() *pbuf { return &pbuf{b: d.bytes()} }

// uints reads a repeated integer field in either packed (wire type 2)
// or unpacked (wire type 0) encoding, appending to dst.
func (d *pbuf) uints(wire int, dst []uint64) []uint64 {
	if wire == 0 {
		return append(dst, d.varint())
	}
	if wire != 2 {
		d.skip(wire)
		return dst
	}
	packed := pbuf{b: d.bytes()}
	for !packed.done() {
		dst = append(dst, packed.varint())
	}
	if packed.err != nil {
		d.fail(packed.err.Error())
	}
	return dst
}

func (d *pbuf) skip(wire int) {
	switch wire {
	case 0:
		d.varint()
	case 1:
		d.advance(8)
	case 2:
		d.bytes()
	case 5:
		d.advance(4)
	default:
		d.fail(fmt.Sprintf("unsupported wire type %d", wire))
	}
}

func (d *pbuf) advance(n int) {
	if n > len(d.b) {
		d.fail("truncated field")
		return
	}
	d.b = d.b[n:]
}

// --- attribution ---------------------------------------------------------

// Frames that mark the simulator's own machinery.
const (
	simYield   = "repro/internal/sim.(*Proc).yield"
	simStep    = "repro/internal/sim.(*Engine).step"
	simRunLoop = "repro/internal/sim.(*Engine).RunUntil"
)

// namedFrames are inclusive totals: every sample with the function on
// its stack counts, whichever layer each view charges it to.
var namedFrames = map[string]string{
	"core.credit_sweep_s":     "repro/internal/core.(*Substrate).creditSweep",
	"core.keepalive_s":        "repro/internal/core.(*Conn).keepaliveLoop",
	"sock.session_watchdog_s": "repro/internal/sock.(*Session).watchdog",
}

// layerOf names the layer a frame belongs to: the repository package
// (anything outside selfLayers counts as "other"), "bench" for this
// benchmark's own code, and "" outside the repository.
func layerOf(fn string) string {
	if rest, ok := strings.CutPrefix(fn, "repro/internal/"); ok {
		pkg, _, _ := strings.Cut(rest, ".")
		if slices.Contains(selfLayers, pkg) {
			return pkg
		}
		return "other"
	}
	if strings.HasPrefix(fn, "main.") || strings.HasPrefix(fn, "repro/benchmark.") {
		return "bench"
	}
	return ""
}

// runtimeBucket classifies a sample with no repository frame at all.
func runtimeBucket(frames []string) string {
	for _, fn := range frames {
		for _, gc := range []string{"runtime.gc", "runtime.bgsweep", "runtime.bgscavenge",
			"runtime._GC", "runtime.markroot", "runtime.scanobject", "runtime.sweepone"} {
			if strings.HasPrefix(fn, gc) {
				return "runtime.gc_s"
			}
		}
	}
	return "runtime.sched_s"
}

// attribute charges one sample in two views, each a partition of all
// samples. self is the package of the innermost repository frame, except
// that scheduler and channel leaves under the proc hand-off count as
// sim.handoff_s. owner is the innermost repository frame outside sim;
// the engine loop and proc plumbing, which have none, count as
// sim.engine_s. Samples with no repository frame count as runtime.gc_s
// or runtime.sched_s in both views.
func attribute(frames []string) (self, owner string) {
	for _, fn := range frames {
		layer := layerOf(fn)
		if layer == "" {
			continue
		}
		if self == "" {
			self = layer + ".self_s"
			if fn == simYield || fn == simStep {
				self = "sim.handoff_s"
			}
		}
		if layer != "sim" {
			return self, layer + ".owner_s"
		}
		if fn == simRunLoop {
			return self, "sim.engine_s"
		}
	}
	if self == "" {
		b := runtimeBucket(frames)
		return b, b
	}
	return self, "sim.engine_s"
}

// hostProfile is one profile's attribution, in nanoseconds of CPU.
type hostProfile struct {
	total int64
	self  map[string]int64
	owner map[string]int64
	named map[string]int64
}

func attributeAll(samples []cpuSample) hostProfile {
	hp := hostProfile{self: map[string]int64{}, owner: map[string]int64{}, named: map[string]int64{}}
	for _, s := range samples {
		self, owner := attribute(s.frames)
		hp.total += s.ns
		hp.self[self] += s.ns
		hp.owner[owner] += s.ns
		for name, frame := range namedFrames {
			if slices.Contains(s.frames, frame) {
				hp.named[name] += s.ns
			}
		}
	}
	return hp
}

// metrics reports every profile metric in seconds; buckets no sample
// reached report 0.
func (hp hostProfile) metrics(vals map[string]float64) {
	secs := func(ns int64) float64 { return float64(ns) / 1e9 }
	for _, layer := range selfLayers {
		vals[layer+".self_s"] = secs(hp.self[layer+".self_s"])
		if layer != "sim" {
			vals[layer+".owner_s"] = secs(hp.owner[layer+".owner_s"])
		}
	}
	vals["sim.handoff_s"] = secs(hp.self["sim.handoff_s"])
	vals["sim.engine_s"] = secs(hp.owner["sim.engine_s"])
	// The runtime buckets are the same samples in both views.
	vals["runtime.gc_s"] = secs(hp.self["runtime.gc_s"])
	vals["runtime.sched_s"] = secs(hp.self["runtime.sched_s"])
	for name := range namedFrames {
		vals[name] = secs(hp.named[name])
	}
	vals["trace.profile_s"] = secs(hp.total)
}
