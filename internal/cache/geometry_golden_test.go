package cache

import (
	"flag"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/geometry.golden with current outputs")

// goldenGeometries are the two larger-than-paper organisations the golden
// pins: eight 4 KB banks with lines to 128 B, and sixteen 2 KB banks with
// lines to 64 B.
func goldenGeometries() []Geometry {
	return []Geometry{
		{BankBytes: 4096, NumBanks: 8, MaxLineBytes: 128},
		{BankBytes: 2048, NumBanks: 16, MaxLineBytes: 64},
	}
}

// mustGeometry is NewConfigurableGeometry that fails the test on error.
func mustGeometry(t testing.TB, geo Geometry, cfg Config) *Configurable {
	t.Helper()
	c, err := NewConfigurableGeometry(geo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// goldenStream is a seeded read/write stream over geo: three quarters of
// the accesses fall in a working set the size of the full cache, the rest
// anywhere in four times that, so every configuration sees hits, conflict
// misses and dirty evictions.
func goldenStream(geo Geometry, seed int64, n int) ([]uint32, []bool) {
	rng := rand.New(rand.NewSource(seed))
	addrs, writes := make([]uint32, n), make([]bool, n)
	for i := range addrs {
		span := geo.MaxSizeBytes()
		if rng.Intn(4) == 0 {
			span *= 4
		}
		addrs[i] = uint32(rng.Intn(span)) &^ 3
		writes[i] = rng.Intn(4) == 0
	}
	return addrs, writes
}

// digester folds every AccessResult of a run into one 64-bit FNV-1a digest.
type digester struct{ buf []byte }

func (d *digester) add(r AccessResult) {
	b2i := func(b bool) byte {
		if b {
			return 1
		}
		return 0
	}
	d.buf = append(d.buf, b2i(r.Hit), b2i(r.PredFirstProbeHit), b2i(r.VictimHit),
		byte(r.WaysProbed), byte(r.Writebacks), byte(r.SublinesFilled), byte(r.ExtraLatency))
}

func (d *digester) sum() uint64 {
	h := fnv.New64a()
	h.Write(d.buf)
	return h.Sum64()
}

func (d *digester) run(c *Configurable, addrs []uint32, writes []bool) {
	for i, a := range addrs {
		d.add(c.Access(a, writes[i]))
	}
}

func goldenLine(w *strings.Builder, name string, c *Configurable, d *digester) {
	fmt.Fprintf(w, "%s digest=%016x dirty=%d stats=%+v\n", name, d.sum(), c.DirtyLines(), c.Stats())
}

// renderGeometryGolden runs every input of the golden on geo: each
// configuration over one seeded stream, three seeded growth-only walks from
// the smallest configuration, and an AllowShrink descent from the largest.
func renderGeometryGolden(t *testing.T, geo Geometry) string {
	var w strings.Builder
	tag := fmt.Sprintf("%dx%d/%d", geo.NumBanks, geo.BankBytes, geo.MaxLineBytes)
	addrs, writes := goldenStream(geo, 1, 4000)
	for _, cfg := range geo.Configs() {
		c := mustGeometry(t, geo, cfg)
		var d digester
		d.run(c, addrs, writes)
		goldenLine(&w, fmt.Sprintf("%s config %v", tag, cfg), c, &d)
	}

	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(100 + seed))
		c := mustGeometry(t, geo, geo.MinConfig())
		var d digester
		var path []string
		for step := 0; ; step++ {
			a, wr := goldenStream(geo, 200+10*seed+int64(step), 1500)
			d.run(c, a, wr)
			var next []Config
			for _, n := range geo.Configs() {
				if c.Config().Grows(n) && n != c.Config() {
					next = append(next, n)
				}
			}
			if len(next) == 0 || step == 8 {
				break
			}
			cfg := next[rng.Intn(len(next))]
			if err := c.SetConfig(cfg); err != nil {
				t.Fatalf("%s walk %d: SetConfig(%v): %v", tag, seed, cfg, err)
			}
			path = append(path, cfg.String())
		}
		goldenLine(&w, fmt.Sprintf("%s walk %d [%s]", tag, seed, strings.Join(path, " ")), c, &d)
	}

	top := geo.MaxSizeBytes()
	descent := []Config{
		{SizeBytes: top, Ways: 2, LineBytes: PhysLineBytes * 2, WayPredict: true},
		{SizeBytes: top / 2, Ways: 2, LineBytes: geo.MaxLineBytes},
		{SizeBytes: top / 4, Ways: 1, LineBytes: PhysLineBytes},
		geo.MinConfig(),
	}
	c := mustGeometry(t, geo, Config{SizeBytes: top, Ways: geo.NumBanks, LineBytes: geo.MaxLineBytes, WayPredict: true})
	var d digester
	d.run(c, addrs[:2000], writes[:2000])
	if err := c.SetConfig(descent[1]); err == nil {
		t.Fatalf("%s: shrink accepted without AllowShrink", tag)
	}
	c.AllowShrink = true
	for i, cfg := range descent {
		if err := c.SetConfig(cfg); err != nil {
			t.Fatalf("%s shrink: SetConfig(%v): %v", tag, cfg, err)
		}
		goldenLine(&w, fmt.Sprintf("%s shrink %d %v", tag, i, cfg), c, &d)
		a, wr := goldenStream(geo, 300+int64(i), 1000)
		d.run(c, a, wr)
	}
	goldenLine(&w, fmt.Sprintf("%s shrink end", tag), c, &d)
	return w.String()
}

// TestGeometryGolden pins the configurable cache's behaviour on geometries
// larger than the paper's four banks: per-access results, final counters
// and dirty-line counts for every configuration, growth walks and a
// shrinking descent. Regenerate only for an intended behaviour change, with
// -update.
func TestGeometryGolden(t *testing.T) {
	var got strings.Builder
	for _, geo := range goldenGeometries() {
		got.WriteString(renderGeometryGolden(t, geo))
	}
	path := filepath.Join("testdata", "geometry.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to record)", err)
	}
	gotLines := strings.Split(got.String(), "\n")
	wantLines := strings.Split(string(want), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("golden has %d lines, run produced %d", len(wantLines), len(gotLines))
	}
	for i := range wantLines {
		if gotLines[i] != wantLines[i] {
			t.Errorf("line %d:\n got  %s\n want %s", i+1, gotLines[i], wantLines[i])
		}
	}
}
