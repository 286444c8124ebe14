package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// spanLog keeps the traced run's spans in memory; write dumps them once at
// the end. Spans are recorded by the benchmark around its calls into each
// layer. A nil *spanLog records nothing, which is the untraced run.
type spanLog struct {
	mu    sync.Mutex
	epoch time.Time
	next  uint64
	spans []spanRec
}

// spanRec is one finished span. Trace is shared by every span of one
// session or stream; Parent is 0 for a root.
type spanRec struct {
	ID     uint64  `json:"id"`
	Parent uint64  `json:"parent,omitempty"`
	Trace  string  `json:"trace"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
}

func newSpanLog() *spanLog { return &spanLog{epoch: time.Now()} }

// id reserves a span id, so children can name their parent before the
// parent ends.
func (l *spanLog) id() uint64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.next++
	return l.next
}

// add records a finished span under a reserved id (0 reserves one).
func (l *spanLog) add(id, parent uint64, trace, name string, t0, t1 time.Time) {
	if l == nil {
		return
	}
	if id == 0 {
		id = l.id()
	}
	l.mu.Lock()
	l.spans = append(l.spans, spanRec{ID: id, Parent: parent, Trace: trace, Name: name,
		Start: t0.Sub(l.epoch).Seconds(), End: t1.Sub(l.epoch).Seconds()})
	l.mu.Unlock()
}

// write dumps the spans as JSON lines.
func (l *spanLog) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	l.mu.Lock()
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			l.mu.Unlock()
			f.Close()
			return err
		}
	}
	l.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes sums, per span name, each span's duration minus the part of
// its interval its children cover: the time spent in that layer itself.
func (l *spanLog) selfTimes() map[string]float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	kids := map[uint64][]spanRec{}
	for _, s := range l.spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := map[string]float64{}
	for _, s := range l.spans {
		out[s.Name] += s.End - s.Start - covered(s, kids[s.ID])
	}
	return out
}

// covered is the length of the union of kids' intervals clipped to s.
func covered(s spanRec, kids []spanRec) float64 {
	type iv struct{ a, b float64 }
	var ivs []iv
	for _, k := range kids {
		a, b := max(k.Start, s.Start), min(k.End, s.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, end float64
	for i, v := range ivs {
		if i == 0 || v.a > end {
			total += v.b - v.a
			end = v.b
		} else if v.b > end {
			total += v.b - end
			end = v.b
		}
	}
	return total
}

// quantile is the q-quantile of xs by linear interpolation between order
// statistics; xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
