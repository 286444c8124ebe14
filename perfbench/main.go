// Command perfbench is the repository's benchmark: one command that drives
// the serving path (loopback-TCP fleet ingest) and the paper reproduction
// (Table 1 and the Figure 2 sweep), checks every output, and prints each
// end-to-end metric by name with its unit. With --trace 1 it instead runs the
// traced per-layer measurement and writes the spans it recorded.
//
// It is built and run from the root of a checkout by perfbench/run.sh; see
// perfbench/README.md for the workloads, the metrics and how to read them.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"syscall"
)

// metric is one named figure as printed on the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// outcome is what one run of a workload reports before it is printed:
// the checked work and the metrics.
type outcome struct {
	attempted, failed int
	metrics           map[string]metric
	// info carries figures that are not metrics (sample counts, the
	// failure ratio, span self times); it is printed on its own line.
	info map[string]any
}

func (o *outcome) set(name string, v float64, unit string) {
	if o.metrics == nil {
		o.metrics = map[string]metric{}
	}
	o.metrics[name] = metric{Value: v, Unit: unit}
}

func (o *outcome) note(key string, v any) {
	if o.info == nil {
		o.info = map[string]any{}
	}
	o.info[key] = v
}

func main() {
	var (
		wl      = flag.String("workload", "", "workload: fleet-steady, fleet-phased or offline-reproduce")
		seed    = flag.Int64("seed", 1, "seed every generated input derives from")
		seconds = flag.Float64("seconds", 10, "measured time per run, in seconds")
		traced  = flag.Int("trace", 0, "1 runs the traced per-layer measurement instead of the end-to-end one")
		root    = flag.String("root", ".", "checkout root; outputs go under <root>/.bench_build/perfbench")
	)
	flag.Parse()
	if *traced != 0 && *traced != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	cfg, err := newConfig(*wl, *seed, *seconds, *traced == 1, *root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	res, err := run(cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		fmt.Fprintf(os.Stderr, "perfbench: %d of %d checked outputs failed\n", res.Failed, res.Attempted)
		os.Exit(1)
	}
}

// run executes one workload, printing the stamp and info lines to w, and
// returns the result line.
func run(cfg config, w io.Writer) (result, error) {
	if err := os.MkdirAll(cfg.outDir(), 0o755); err != nil {
		return result{}, err
	}
	if err := writeLine(w, cfg.stamp()); err != nil {
		return result{}, err
	}
	var (
		out outcome
		err error
	)
	switch {
	case cfg.traced:
		out, err = runTraced(cfg)
	case cfg.workload == offlineReproduce:
		out, err = runOffline(cfg)
	default:
		out, err = runFleet(cfg)
	}
	if err != nil {
		return result{}, err
	}
	if !cfg.traced {
		out.set("peak_rss_mb", peakRSSMB(), "MB")
	}
	ratio := float64(out.failed) / float64(max(out.attempted, 1))
	out.note("kind", "info")
	out.note("failed_ratio", ratio)
	if err := writeLine(w, out.info); err != nil {
		return result{}, err
	}
	return result{
		Correct:   out.failed == 0 && out.attempted > 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   out.metrics,
	}, nil
}

func writeLine(w io.Writer, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// peakRSSMB is the process's maximum resident set size so far.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// stamp describes the machine, build and inputs of a run.
func (c config) stamp() map[string]any {
	commit, modified := "unknown", "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				commit = s.Value
			case "vcs.modified":
				modified = s.Value
			}
		}
	}
	return map[string]any{
		"kind":            "stamp",
		"workload":        c.workload,
		"seed":            c.seed,
		"seconds":         c.seconds,
		"trace":           c.traced,
		"nproc":           runtime.NumCPU(),
		"gomaxprocs":      runtime.GOMAXPROCS(0),
		"go_version":      runtime.Version(),
		"commit":          commit,
		"vcs_modified":    modified,
		"sizes":           c.sizes(),
		"checkpoint_root": c.ckptRoot(),
		"checkpoint_fs":   fsType(c.outDir()),
	}
}

// fsType names the filesystem holding dir (checkpoint persist cost depends
// on it: fsync on tmpfs is free, on a disk it is not).
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint64(st.Type) {
	case 0x01021994:
		return "tmpfs"
	case 0xef53:
		return "ext4"
	case 0x58465342:
		return "xfs"
	case 0x9123683e:
		return "btrfs"
	case 0x794c7630:
		return "overlayfs"
	}
	return fmt.Sprintf("0x%x", uint64(st.Type))
}

func (c config) outDir() string { return filepath.Join(c.root, ".bench_build", "perfbench") }

func (c config) ckptRoot() string {
	return filepath.Join(c.outDir(), fmt.Sprintf("ckpt-%s-%d", c.workload, c.seed))
}
