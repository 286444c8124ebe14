// Package trace defines the memory reference stream flowing from a workload
// (the mini-VM or a synthetic generator) into the cache simulators, plus a
// compact binary codec for storing reference streams on disk, in the spirit
// of SimpleScalar's EIO traces.
package trace

// Kind classifies one memory reference.
type Kind uint8

const (
	// InstFetch is an instruction fetch (routed to the I-cache).
	InstFetch Kind = iota
	// DataRead is a load (routed to the D-cache).
	DataRead
	// DataWrite is a store (routed to the D-cache).
	DataWrite
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case InstFetch:
		return "I"
	case DataRead:
		return "R"
	case DataWrite:
		return "W"
	default:
		return "?"
	}
}

// Access is one memory reference.
type Access struct {
	// Addr is the byte address referenced.
	Addr uint32
	// Kind classifies the reference.
	Kind Kind
}

// IsWrite reports whether the access modifies memory.
func (a Access) IsWrite() bool { return a.Kind == DataWrite }

// IsData reports whether the access belongs to the data stream.
func (a Access) IsData() bool { return a.Kind != InstFetch }

// NewSliceSource returns accs unchanged. Streams are recorded []Access
// slices throughout; the identity remains only because the perfbench module
// still spells its splits Split(NewSliceSource(x)), and goes when that
// module next changes.
func NewSliceSource(accs []Access) []Access { return accs }

// OnlyInst returns the instruction stream of accs, allocated once at its
// exact length (nil when empty).
func OnlyInst(accs []Access) []Access { return keep(accs, true) }

// OnlyData returns the data stream of accs, allocated once at its exact
// length (nil when empty).
func OnlyData(accs []Access) []Access { return keep(accs, false) }

// keep returns the instruction fetches of accs when inst is true and the
// data accesses otherwise, counting them first so the result is allocated
// once.
func keep(accs []Access, inst bool) []Access {
	n := 0
	for _, a := range accs {
		if a.IsData() != inst {
			n++
		}
	}
	if n == 0 {
		return nil
	}
	out := make([]Access, 0, n)
	for _, a := range accs {
		if a.IsData() != inst {
			out = append(out, a)
		}
	}
	return out
}

// Split partitions a mixed stream into its instruction and data halves,
// each allocated at its exact length (nil when empty).
//
// Split is small enough to inline, but inlined into a large caller such
// as experiments.Table1TraceCtx its fill loop spills both slice headers to
// the stack on every access, about 10% slower per access than the call.
//
//go:noinline
func Split(accs []Access) (inst, data []Access) {
	ni := 0
	for _, a := range accs {
		if a.Kind == InstFetch {
			ni++
		}
	}
	if ni > 0 {
		inst = make([]Access, 0, ni)
	}
	if ni < len(accs) {
		data = make([]Access, 0, len(accs)-ni)
	}
	for _, a := range accs {
		if a.Kind == InstFetch {
			inst = append(inst, a)
		} else {
			data = append(data, a)
		}
	}
	return inst, data
}

// Summary describes a reference stream.
type Summary struct {
	Total, Inst, Reads, Writes int
	// UniqueLines16 is the 16 B-granularity footprint.
	UniqueLines16 int
}

// Summarize scans a recorded stream.
func Summarize(accs []Access) Summary {
	var s Summary
	lines := make(map[uint32]struct{})
	for _, a := range accs {
		s.Total++
		switch a.Kind {
		case InstFetch:
			s.Inst++
		case DataRead:
			s.Reads++
		case DataWrite:
			s.Writes++
		}
		lines[a.Addr>>4] = struct{}{}
	}
	s.UniqueLines16 = len(lines)
	return s
}
