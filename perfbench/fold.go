package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
)

// This file folds pprof profiles (the gzipped profile.proto that
// runtime/pprof writes) into per-layer rows. It decodes the handful of
// profile.proto fields the fold needs by hand, so the benchmark stays
// standard-library only and needs no toolchain at run time.

// layers are the repository's modules the benchmark reports on, in report
// order. payload and runtime are not packages: see classify.
var layers = []string{
	"des", "mpi", "pvfs", "romio", "core", "search", "payload", "fault",
	"obs", "causal", "adapt", "experiments", "runtime",
}

// otherLayer collects samples with no layer frame on the stack: the
// benchmark's own code, the scheduler, syscalls and the profiler itself.
const otherLayer = "other"

// layerPackages are the s3asim/internal packages that are layers. Helper
// packages (stats, trace, serve, ...) are not: their samples are charged to
// the innermost layer that called them.
var layerPackages = map[string]bool{
	"des": true, "mpi": true, "pvfs": true, "romio": true, "core": true,
	"search": true, "fault": true, "obs": true, "causal": true,
	"adapt": true, "experiments": true,
}

// payloadFuncs generate or verify result content: the workload's
// ResultData and core's content hashing and image/readback verification.
var payloadFuncs = map[string]bool{
	"s3asim/internal/search.(*Workload).ResultData": true,
	"s3asim/internal/core.contentHash":              true,
	"s3asim/internal/core.(*runtime).rbVerify":      true,
	"s3asim/internal/core.(*runtime).rbPostRun":     true,
	"s3asim/internal/core.(*runtime).verifyImage":   true,
}

// isAllocOrGC reports whether fn is the allocator's entry point or part of
// the garbage collector (background mark workers, assists, sweeping).
func isAllocOrGC(fn string) bool {
	switch fn {
	case "runtime.mallocgc", "runtime.bgsweep", "runtime.bgscavenge",
		"runtime.sweepone", "runtime.markroot":
		return true
	}
	return strings.HasPrefix(fn, "runtime.gc")
}

// classify names the layer a stack (innermost frame first) is charged to:
// the innermost frame that is an allocator/GC frame (runtime), a payload
// function (payload) or a function of a layer package (that layer). The
// allocator rule applies to CPU profiles only; allocation-profile stacks
// start at the allocation site, so there every stack would match it.
func classify(stack []string, cpu bool) string {
	for _, fn := range stack {
		if cpu && isAllocOrGC(fn) {
			return "runtime"
		}
		if payloadFuncs[fn] {
			return "payload"
		}
		if pkg := internalPackage(fn); layerPackages[pkg] {
			return pkg
		}
	}
	return otherLayer
}

// internalPackage returns the package of an s3asim/internal function name
// ("s3asim/internal/des.(*Simulation).Run" -> "des"), or "".
func internalPackage(fn string) string {
	const prefix = "s3asim/internal/"
	if !strings.HasPrefix(fn, prefix) {
		return ""
	}
	rest := fn[len(prefix):]
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		return rest[:i]
	}
	return rest
}

// profile is the part of a decoded profile.proto the fold uses.
type profile struct {
	types   []string // sample value type names, e.g. "cpu", "alloc_space"
	samples []sample
}

type sample struct {
	stack  []string // function names, innermost first, inlined frames expanded
	values []int64
}

// valueIndex returns the position of the named sample value type.
func (p *profile) valueIndex(name string) (int, error) {
	for i, t := range p.types {
		if t == name {
			return i, nil
		}
	}
	return 0, fmt.Errorf("profile has no %q sample value (types %v)", name, p.types)
}

// fold sums sample value vi per layer. Every sample lands in exactly one
// row (otherLayer included), so the rows sum to total.
func (p *profile) fold(vi int, cpu bool) (rows map[string]int64, total int64) {
	rows = make(map[string]int64)
	for _, s := range p.samples {
		v := s.values[vi]
		rows[classify(s.stack, cpu)] += v
		total += v
	}
	return rows, total
}

// foldDelta folds the named value of after minus before: the allocation
// profile is cumulative since process start, so a phase's allocations are
// the difference of two snapshots.
func foldDelta(before, after *profile, value string) (map[string]int64, int64, error) {
	ia, err := after.valueIndex(value)
	if err != nil {
		return nil, 0, err
	}
	rows, total := after.fold(ia, false)
	if before != nil {
		ib, err := before.valueIndex(value)
		if err != nil {
			return nil, 0, err
		}
		prev, prevTotal := before.fold(ib, false)
		for k, v := range prev {
			rows[k] -= v
		}
		total -= prevTotal
	}
	return rows, total, nil
}

// checkSum verifies that the rows add up to total.
func checkSum(rows map[string]int64, total int64) error {
	var sum int64
	keys := make([]string, 0, len(rows))
	for k, v := range rows {
		sum += v
		keys = append(keys, k)
	}
	if sum != total {
		sort.Strings(keys)
		return fmt.Errorf("fold rows %v sum to %d, profile total is %d", keys, sum, total)
	}
	return nil
}

// parseProfile decodes a (optionally gzipped) profile.proto.
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
	type rawSample struct{ locs, values []uint64 }
	var (
		typeIdx  []uint64
		raw      []rawSample
		locLines = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcName = map[uint64]uint64{}   // function id -> string index
		strs     []string
		top      = pbuf{data}
	)
	for !top.done() {
		f, msg, err := top.field()
		if err != nil {
			return nil, err
		}
		switch f.num {
		case 1: // sample_type: ValueType{type = 1}
			for !msg.done() {
				g, _, err := msg.field()
				if err != nil {
					return nil, err
				}
				if g.num == 1 {
					typeIdx = append(typeIdx, g.val)
				}
			}
		case 2: // sample: location_id = 1, value = 2
			var s rawSample
			for !msg.done() {
				g, body, err := msg.field()
				if err != nil {
					return nil, err
				}
				switch g.num {
				case 1:
					s.locs, err = g.appendVarints(s.locs, body)
				case 2:
					s.values, err = g.appendVarints(s.values, body)
				}
				if err != nil {
					return nil, err
				}
			}
			raw = append(raw, s)
		case 4: // location: id = 1, line = 4 (Line{function_id = 1})
			var id uint64
			var fns []uint64
			for !msg.done() {
				g, body, err := msg.field()
				if err != nil {
					return nil, err
				}
				switch g.num {
				case 1:
					id = g.val
				case 4:
					for !body.done() {
						h, _, err := body.field()
						if err != nil {
							return nil, err
						}
						if h.num == 1 {
							fns = append(fns, h.val)
						}
					}
				}
			}
			locLines[id] = fns
		case 5: // function: id = 1, name = 2
			var id, name uint64
			for !msg.done() {
				g, _, err := msg.field()
				if err != nil {
					return nil, err
				}
				switch g.num {
				case 1:
					id = g.val
				case 2:
					name = g.val
				}
			}
			funcName[id] = name
		case 6: // string_table
			strs = append(strs, string(msg.b))
		}
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	p := &profile{}
	for _, t := range typeIdx {
		p.types = append(p.types, str(t))
	}
	for _, rs := range raw {
		if len(rs.values) != len(p.types) {
			return nil, fmt.Errorf("profile: sample has %d values for %d types", len(rs.values), len(p.types))
		}
		s := sample{values: make([]int64, len(rs.values))}
		for i, v := range rs.values {
			s.values[i] = int64(v)
		}
		for _, loc := range rs.locs {
			for _, fn := range locLines[loc] {
				s.stack = append(s.stack, str(funcName[fn]))
			}
		}
		p.samples = append(p.samples, s)
	}
	return p, nil
}

// pbuf is a cursor over protobuf wire-format bytes.
type pbuf struct{ b []byte }

// pfield is one decoded field key plus, for varint fields, its value.
type pfield struct {
	num  int
	wire int
	val  uint64
}

var errTruncated = errors.New("profile: truncated protobuf")

func (p *pbuf) done() bool { return len(p.b) == 0 }

func (p *pbuf) varint() (uint64, error) {
	var v uint64
	for i := 0; i < len(p.b) && i < 10; i++ {
		c := p.b[i]
		v |= uint64(c&0x7f) << (7 * i)
		if c < 0x80 {
			p.b = p.b[i+1:]
			return v, nil
		}
	}
	return 0, errTruncated
}

// field reads the next field. Length-delimited fields return their body as
// a sub-buffer; varint fields carry their value in pfield.val.
func (p *pbuf) field() (pfield, pbuf, error) {
	key, err := p.varint()
	if err != nil {
		return pfield{}, pbuf{}, err
	}
	f := pfield{num: int(key >> 3), wire: int(key & 7)}
	switch f.wire {
	case 0:
		f.val, err = p.varint()
		return f, pbuf{}, err
	case 1, 5:
		n := 8
		if f.wire == 5 {
			n = 4
		}
		if len(p.b) < n {
			return f, pbuf{}, errTruncated
		}
		p.b = p.b[n:]
		return f, pbuf{}, nil
	case 2:
		n, err := p.varint()
		if err != nil || uint64(len(p.b)) < n {
			return f, pbuf{}, errTruncated
		}
		body := pbuf{p.b[:n]}
		p.b = p.b[n:]
		return f, body, nil
	}
	return f, pbuf{}, fmt.Errorf("profile: unsupported wire type %d", f.wire)
}

// appendVarints appends a repeated integer field, packed (wire type 2) or
// not (wire type 0).
func (f pfield) appendVarints(dst []uint64, body pbuf) ([]uint64, error) {
	if f.wire == 0 {
		return append(dst, f.val), nil
	}
	for !body.done() {
		v, err := body.varint()
		if err != nil {
			return nil, err
		}
		dst = append(dst, v)
	}
	return dst, nil
}
