package experiments

import (
	"reflect"
	"testing"

	"selftune/internal/energy"
)

// TestExperimentsBitIdenticalAcrossWorkerCounts pins that every experiment's
// public result — the tables and figures themselves, not just raw replay
// results — is bit-identical no matter how the work is fanned out.
func TestExperimentsBitIdenticalAcrossWorkerCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("full-experiment parity is slow")
	}
	p := energy.DefaultParams()
	const n = 20_000

	if serial, parallel := table1(t, n, 1), table1(t, n, 4); !reflect.DeepEqual(serial, parallel) {
		t.Error("Table1 diverged across worker counts")
	}
	if serial, parallel := figure2(t, n, 1), figure2(t, n, 4); !reflect.DeepEqual(serial, parallel) {
		t.Error("Figure2 diverged across worker counts")
	}
	if serial, parallel := figure34(t, n, false, 1), figure34(t, n, false, 4); !reflect.DeepEqual(serial, parallel) {
		t.Error("Figure34 diverged across worker counts")
	}
	// The window study drops each profile's init phase (up to ~24k
	// accesses), so it needs a longer trace than the sweeps above.
	windows := []uint64{2_000, 8_000}
	const wn = 100_000
	if serial, parallel := WindowSensitivityWorkers(wn, windows, p, 1), WindowSensitivityWorkers(wn, windows, p, 4); !reflect.DeepEqual(serial, parallel) {
		t.Error("WindowSensitivity diverged across worker counts")
	}
}
