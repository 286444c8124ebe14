package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestServeWithConnectRefused pins that the server and client modes are
// exclusive.
func TestServeWithConnectRefused(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-serve", "-connect", "127.0.0.1:1"}, &out)
	if err == nil || !strings.Contains(err.Error(), "pick one of -serve or -connect") {
		t.Fatalf("run returned %v, want the -serve/-connect conflict", err)
	}
}

// TestPickStreamErrors pins every way a local or client source can be
// refused before anything is served or dialled.
func TestPickStreamErrors(t *testing.T) {
	// A data-only din trace: its instruction stream is empty.
	din := filepath.Join(t.TempDir(), "data.din")
	if err := os.WriteFile(din, []byte("0 100\n1 104\n0 108\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		args []string
		want string
	}{
		{"no source", nil, "pick exactly one of -workload, -kernel or -trace"},
		{"two sources", []string{"-workload", "crc", "-kernel", "crc"}, "pick exactly one of -workload, -kernel or -trace"},
		{"unknown workload", []string{"-workload", "nope"}, `unknown workload "nope"`},
		{"unknown kernel", []string{"-kernel", "nope"}, `unknown kernel "nope"`},
		{"unknown stream", []string{"-workload", "crc", "-n", "100", "-stream", "both"}, `unknown -stream "both"`},
		{"empty stream", []string{"-trace", din, "-stream", "inst"}, "the selected inst stream is empty"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var out bytes.Buffer
			err := run(tc.args, &out)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("run(%q) returned %v, want an error containing %q", tc.args, err, tc.want)
			}
		})
	}
}

// TestLocalResumesFromCheckpoint runs local mode over a stream prefix, then
// over the whole stream in the same -dir: the second run recovers from the
// first run's checkpoint, notes it on one line with no blank line after it,
// and reports exactly what one uninterrupted run over the whole stream
// reports.
func TestLocalResumesFromCheckpoint(t *testing.T) {
	args := func(dir string, n string) []string {
		return []string{"-workload", "jpeg", "-stream", "data", "-window", "2000", "-n", n, "-dir", dir}
	}
	var whole bytes.Buffer
	if err := run(args(t.TempDir(), "200000"), &whole); err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	var first, resumed bytes.Buffer
	if err := run(args(dir, "80000"), &first); err != nil {
		t.Fatal(err)
	}
	if err := run(args(dir, "200000"), &resumed); err != nil {
		t.Fatal(err)
	}
	note, rest, ok := strings.Cut(resumed.String(), "\n")
	if !ok || !strings.HasPrefix(note, "recovered from checkpoint: ") {
		t.Fatalf("second run did not recover from the first run's checkpoint:\n%s", resumed.String())
	}
	if strings.HasPrefix(rest, "\n") {
		t.Fatalf("a blank line follows the recovery note:\n%s", resumed.String())
	}
	if rest != whole.String() {
		t.Fatalf("resumed run reports\n%s\nbut one uninterrupted run reports\n%s", rest, whole.String())
	}
	if !strings.Contains(rest, "\ncurrent: ") {
		t.Fatalf("no current: line in\n%s", rest)
	}
}
