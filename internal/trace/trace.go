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

// Source yields a reference stream. Next returns ok=false at end of stream.
type Source interface {
	Next() (a Access, ok bool)
}

// SliceSource replays a recorded stream.
type SliceSource struct {
	accs []Access
	pos  int
}

// NewSliceSource replays accs.
func NewSliceSource(accs []Access) *SliceSource { return &SliceSource{accs: accs} }

// Next implements Source.
func (s *SliceSource) Next() (Access, bool) {
	if s.pos >= len(s.accs) {
		return Access{}, false
	}
	a := s.accs[s.pos]
	s.pos++
	return a, true
}

// Reset rewinds the source to the beginning.
func (s *SliceSource) Reset() { s.pos = 0 }

// Collect drains up to max accesses from src (max <= 0 means all).
func Collect(src Source, max int) []Access {
	var out []Access
	for {
		a, ok := src.Next()
		if !ok {
			return out
		}
		out = append(out, a)
		if max > 0 && len(out) >= max {
			return out
		}
	}
}

// Filter yields only accesses matching keep.
type Filter struct {
	src  Source
	keep func(Access) bool
}

// NewFilter wraps src.
func NewFilter(src Source, keep func(Access) bool) *Filter {
	return &Filter{src: src, keep: keep}
}

// Next implements Source.
func (f *Filter) Next() (Access, bool) {
	for {
		a, ok := f.src.Next()
		if !ok {
			return Access{}, false
		}
		if f.keep(a) {
			return a, true
		}
	}
}

// OnlyInst keeps the instruction stream.
func OnlyInst(src Source) *Filter {
	return NewFilter(src, func(a Access) bool { return a.Kind == InstFetch })
}

// OnlyData keeps the data stream.
func OnlyData(src Source) *Filter {
	return NewFilter(src, func(a Access) bool { return a.IsData() })
}

// Split partitions a mixed stream into its instruction and data halves,
// each allocated at its exact length (nil when empty). A *SliceSource is
// partitioned straight from its remaining slice and left drained; any
// other source is collected first.
func Split(src Source) (inst, data []Access) {
	var accs []Access
	if s, ok := src.(*SliceSource); ok {
		accs = s.accs[s.pos:]
		s.pos = len(s.accs)
	} else {
		accs = Collect(src, 0)
	}
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
