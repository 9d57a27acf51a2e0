package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// profile is the part of a pprof profile.proto the per-layer table needs:
// the samples with their stacks resolved to function names, and each
// sample's string labels.
type profile struct {
	sampleTypes []string // "type/unit" per value column
	samples     []sample
}

// sample is one profile sample. stack lists function names leaf first,
// with inlined frames expanded innermost first, as pprof orders them.
type sample struct {
	stack  []string
	values []int64
	labels map[string]string
}

// parseProfile decodes a gzipped (or raw) profile.proto. It reads only
// the fields it needs and skips the rest, so any profile the Go runtime
// writes decodes.
func parseProfile(data []byte) (*profile, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
	}
	type rawSample struct {
		locs   []uint64
		values []int64
		labels [][2]int64 // key, str string-table indexes
	}
	var (
		types     [][2]int64
		raws      []rawSample
		locations = map[uint64][]uint64{} // location id → function ids, innermost first
		functions = map[uint64]int64{}    // function id → name index
		strs      []string
	)
	p := pbuf{b: data}
	for !p.done() {
		field, wire := p.key()
		switch {
		case field == 1 && wire == 2: // sample_type
			m := p.sub()
			var vt [2]int64
			for !m.done() {
				f, w := m.key()
				if (f == 1 || f == 2) && w == 0 {
					vt[f-1] = int64(m.varint())
				} else {
					m.skip(w)
				}
			}
			types = append(types, vt)
			p.err = m.err
		case field == 2 && wire == 2: // sample
			m := p.sub()
			var s rawSample
			for !m.done() {
				f, w := m.key()
				switch {
				case f == 1:
					m.uints(w, func(v uint64) { s.locs = append(s.locs, v) })
				case f == 2:
					m.uints(w, func(v uint64) { s.values = append(s.values, int64(v)) })
				case f == 3 && w == 2:
					l := m.sub()
					var kv [2]int64
					for !l.done() {
						g, lw := l.key()
						if (g == 1 || g == 2) && lw == 0 {
							kv[g-1] = int64(l.varint())
						} else {
							l.skip(lw)
						}
					}
					s.labels = append(s.labels, kv)
					m.err = errors.Join(m.err, l.err)
				default:
					m.skip(w)
				}
			}
			raws = append(raws, s)
			p.err = m.err
		case field == 4 && wire == 2: // location
			m := p.sub()
			var id uint64
			var fns []uint64
			for !m.done() {
				f, w := m.key()
				switch {
				case f == 1 && w == 0:
					id = m.varint()
				case f == 4 && w == 2:
					l := m.sub()
					for !l.done() {
						g, lw := l.key()
						if g == 1 && lw == 0 {
							fns = append(fns, l.varint())
						} else {
							l.skip(lw)
						}
					}
					m.err = errors.Join(m.err, l.err)
				default:
					m.skip(w)
				}
			}
			locations[id] = fns
			p.err = m.err
		case field == 5 && wire == 2: // function
			m := p.sub()
			var id uint64
			var name int64
			for !m.done() {
				f, w := m.key()
				switch {
				case f == 1 && w == 0:
					id = m.varint()
				case f == 2 && w == 0:
					name = int64(m.varint())
				default:
					m.skip(w)
				}
			}
			functions[id] = name
			p.err = m.err
		case field == 6 && wire == 2: // string_table
			strs = append(strs, string(p.bytes()))
		default:
			p.skip(wire)
		}
	}
	if p.err != nil {
		return nil, fmt.Errorf("profile: %w", p.err)
	}
	str := func(i int64) (string, error) {
		if i < 0 || i >= int64(len(strs)) {
			return "", fmt.Errorf("profile: string index %d out of range", i)
		}
		return strs[i], nil
	}
	out := &profile{}
	for _, t := range types {
		typ, err := str(t[0])
		if err != nil {
			return nil, err
		}
		unit, err := str(t[1])
		if err != nil {
			return nil, err
		}
		out.sampleTypes = append(out.sampleTypes, typ+"/"+unit)
	}
	for _, r := range raws {
		s := sample{values: r.values}
		for _, loc := range r.locs {
			for _, fn := range locations[loc] {
				name, err := str(functions[fn])
				if err != nil {
					return nil, err
				}
				s.stack = append(s.stack, name)
			}
		}
		for _, kv := range r.labels {
			k, err := str(kv[0])
			if err != nil {
				return nil, err
			}
			v, err := str(kv[1])
			if err != nil {
				return nil, err
			}
			if s.labels == nil {
				s.labels = map[string]string{}
			}
			s.labels[k] = v
		}
		out.samples = append(out.samples, s)
	}
	return out, nil
}

// pbuf is a protobuf wire-format cursor. The first malformed read sets
// err and stops every later read.
type pbuf struct {
	b   []byte
	err error
}

func (p *pbuf) done() bool { return p.err != nil || len(p.b) == 0 }

func (p *pbuf) varint() uint64 {
	var v uint64
	for i := 0; i < 10; i++ {
		if i >= len(p.b) {
			break
		}
		c := p.b[i]
		v |= uint64(c&0x7f) << (7 * i)
		if c < 0x80 {
			p.b = p.b[i+1:]
			return v
		}
	}
	if p.err == nil {
		p.err = errors.New("malformed varint")
	}
	p.b = nil
	return 0
}

// key reads a field tag: its number and wire type.
func (p *pbuf) key() (field int, wire int) {
	k := p.varint()
	return int(k >> 3), int(k & 7)
}

// bytes reads a length-delimited payload.
func (p *pbuf) bytes() []byte {
	n := p.varint()
	if p.err != nil {
		return nil
	}
	if n > uint64(len(p.b)) {
		p.err = errors.New("truncated field")
		p.b = nil
		return nil
	}
	v := p.b[:n]
	p.b = p.b[n:]
	return v
}

// sub reads an embedded message as its own cursor.
func (p *pbuf) sub() *pbuf {
	b := p.bytes()
	return &pbuf{b: b, err: p.err}
}

// uints reads a repeated varint field in either its packed (wire type 2)
// or unpacked (wire type 0) encoding.
func (p *pbuf) uints(wire int, each func(uint64)) {
	switch wire {
	case 0:
		each(p.varint())
	case 2:
		m := p.sub()
		for !m.done() {
			each(m.varint())
		}
		if m.err != nil {
			p.err = m.err
		}
	default:
		p.skip(wire)
	}
}

func (p *pbuf) skip(wire int) {
	switch wire {
	case 0:
		p.varint()
	case 1:
		p.fixed(8)
	case 2:
		p.bytes()
	case 5:
		p.fixed(4)
	default:
		if p.err == nil {
			p.err = fmt.Errorf("unsupported wire type %d", wire)
		}
		p.b = nil
	}
}

func (p *pbuf) fixed(n int) {
	if len(p.b) < n {
		p.err = errors.New("truncated field")
		p.b = nil
		return
	}
	p.b = p.b[n:]
}

// simLayers are the simulator packages with a row of their own in the
// per-layer CPU table.
var simLayers = []string{
	"sim", "radio", "wifi", "mac", "dhcp", "core", "tcpsim", "backhaul",
	"geo", "scenario", "shard",
}

// layers are all rows of the table: the simulator packages, then the
// runtime's garbage collector, allocator and scheduler, then the rest.
var layers = append(append([]string(nil), simLayers...),
	"runtime.gc", "runtime.alloc", "runtime.sched", "other")

// gcFrames name the collector's own work: background mark workers, mark
// assists, sweepers and the scavenger, plus explicit runtime.GC calls.
var gcFrames = []string{
	"runtime.gc", "runtime.GC", "runtime.bgsweep", "runtime.bgscavenge",
	"runtime.sweepone", "runtime.(*sweepLocked).sweep", "runtime.(*mspan).sweep",
	"runtime.markroot", "runtime.scanobject", "runtime.scanblock",
	"runtime.scanstack", "runtime.greyobject", "runtime.wbBufFlush",
}

// allocFrames name the allocator's entry points.
var allocFrames = []string{
	"runtime.mallocgc", "runtime.newobject", "runtime.newarray",
	"runtime.makeslice", "runtime.growslice", "runtime.makemap",
	"runtime.(*mcache)", "runtime.(*mcentral)", "runtime.(*mheap)",
}

func hasAnyPrefix(s string, prefixes []string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(s, p) {
			return true
		}
	}
	return false
}

// layerOf charges one stack (leaf first) to a layer:
//   - a stack holding a GC worker, assist or sweeper goes to runtime.gc;
//   - an allocator frame below the first spider/internal/<pkg> frame
//     goes to runtime.alloc;
//   - otherwise the nearest spider/internal/<pkg> frame takes it, so map
//     and memmove helpers are charged to their caller; a package outside
//     the table goes to other;
//   - a stack with no simulator frame goes to other when some frame is
//     outside the runtime (the harness itself), else to runtime.sched.
func layerOf(stack []string) string {
	for _, fn := range stack {
		if hasAnyPrefix(fn, gcFrames) {
			return "runtime.gc"
		}
	}
	alloc, foreign := false, false
	for _, fn := range stack {
		if pkg, ok := strings.CutPrefix(fn, "spider/internal/"); ok {
			if alloc {
				return "runtime.alloc"
			}
			if i := strings.IndexByte(pkg, '.'); i >= 0 {
				pkg = pkg[:i]
			}
			for _, l := range simLayers {
				if l == pkg {
					return l
				}
			}
			return "other"
		}
		if hasAnyPrefix(fn, allocFrames) {
			alloc = true
		}
		if !strings.HasPrefix(fn, "runtime.") && !strings.HasPrefix(fn, "runtime/") &&
			!strings.HasPrefix(fn, "internal/runtime/") {
			foreign = true
		}
	}
	switch {
	case alloc:
		return "runtime.alloc"
	case foreign:
		return "other"
	}
	return "runtime.sched"
}

// cpuByLayer sums the profile's CPU time per layer in nanoseconds and
// returns the total over all samples.
func cpuByLayer(p *profile) (map[string]int64, int64, error) {
	col := -1
	for i, t := range p.sampleTypes {
		if t == "cpu/nanoseconds" {
			col = i
		}
	}
	if col < 0 {
		return nil, 0, fmt.Errorf("profile has no cpu/nanoseconds column (types %v)", p.sampleTypes)
	}
	by := make(map[string]int64, len(layers))
	var total int64
	for _, s := range p.samples {
		if col >= len(s.values) {
			return nil, 0, errors.New("profile sample is missing its cpu value")
		}
		v := s.values[col]
		by[layerOf(s.stack)] += v
		total += v
	}
	return by, total, nil
}
