package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"testing"
)

// benchmarkSpec is the part of ../BENCHMARK.json the tests check against.
type benchmarkSpec struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s benchmarkSpec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// tinyConfig shrinks a workload so a run takes seconds.
func tinyConfig(t *testing.T, workload string, traced bool) config {
	t.Helper()
	c, err := newConfig(workload, 7, 0.01, traced, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	c.roundSessions, c.warmLen, c.minRounds = 3, 120_000, 2
	if workload == fleetSteady {
		c.sessionLen = 150_000
	} else {
		c.sessionLen = 40_000
	}
	c.offlineLen, c.fig2Len = 100_000, 30_000
	c.layerCap, c.engineStreams, c.engineLen = 300_000, 1, 20_000
	return c
}

// runTiny runs c and returns the result and the info line.
func runTiny(t *testing.T, c config) (result, map[string]any) {
	t.Helper()
	var buf bytes.Buffer
	res, err := run(c, &buf)
	if err != nil {
		t.Fatal(err)
	}
	var lines []map[string]any
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		var m map[string]any
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("output line %q is not JSON: %v", sc.Text(), err)
		}
		lines = append(lines, m)
	}
	if len(lines) != 2 || lines[0]["kind"] != "stamp" || lines[1]["kind"] != "info" {
		t.Fatalf("want a stamp and an info line, got %v", lines)
	}
	return res, lines[1]
}

// checkMetrics asserts that res carries exactly the named metrics, each
// with its unit.
func checkMetrics(t *testing.T, res result, want []struct{ Name, Unit string }) {
	t.Helper()
	for _, m := range want {
		got, ok := res.Metrics[m.Name]
		if !ok {
			t.Errorf("metric %s missing", m.Name)
			continue
		}
		if got.Unit != m.Unit {
			t.Errorf("metric %s has unit %q, want %q", m.Name, got.Unit, m.Unit)
		}
	}
	if len(res.Metrics) != len(want) {
		t.Errorf("got %d metrics, want %d: %v", len(res.Metrics), len(want), res.Metrics)
	}
}

func TestEveryWorkloadPrintsEveryEndToEndMetric(t *testing.T) {
	spec := loadSpec(t)
	for _, wl := range []string{fleetSteady, fleetPhased, offlineReproduce} {
		t.Run(wl, func(t *testing.T) {
			res, info := runTiny(t, tinyConfig(t, wl, false))
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("output check: correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
			}
			if info["failed_ratio"] != 0.0 {
				t.Errorf("failed_ratio = %v, want 0", info["failed_ratio"])
			}
			checkMetrics(t, res, spec.EndToEnd)
			for name, m := range res.Metrics {
				if m.Value <= 0 {
					t.Errorf("metric %s = %v, want > 0", name, m.Value)
				}
			}
		})
	}
}

func TestTracedRunPrintsEveryLayerMetric(t *testing.T) {
	spec := loadSpec(t)
	for _, wl := range []string{fleetPhased, offlineReproduce} {
		t.Run(wl, func(t *testing.T) {
			res, info := runTiny(t, tinyConfig(t, wl, true))
			if !res.Correct {
				t.Fatalf("output check: attempted=%d failed=%d", res.Attempted, res.Failed)
			}
			checkMetrics(t, res, spec.PerLayer)
			path, _ := info["spans_file"].(string)
			if st, err := os.Stat(path); err != nil || st.Size() == 0 {
				t.Errorf("spans file %q missing or empty: %v", path, err)
			}
			self, _ := info["self_s"].(map[string]any)
			for _, name := range []string{"session", "client.stream", "client.ack_wait", "ingest.conn",
				"ingest.read", "trace.decode_chunk", "daemon.step_block", "checkpoint.save"} {
				if _, ok := self[name]; !ok {
					t.Errorf("no self time for span %s", name)
				}
			}
		})
	}
}

func TestMismatchedReferenceFailsTheCheck(t *testing.T) {
	for _, wl := range []string{fleetSteady, offlineReproduce} {
		t.Run(wl, func(t *testing.T) {
			c := tinyConfig(t, wl, false)
			c.corruptRef = true
			res, info := runTiny(t, c)
			if res.Correct || res.Failed == 0 {
				t.Fatalf("corrupted reference passed: correct=%v failed=%d", res.Correct, res.Failed)
			}
			if r, _ := info["failed_ratio"].(float64); r <= 0 {
				t.Errorf("failed_ratio = %v, want > 0", info["failed_ratio"])
			}
		})
	}
}
