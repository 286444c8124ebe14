// Command stcexplain renders a daemon telemetry log (the JSONL stream
// written by -obs-log or -v) into the human-readable search story: per
// tuning session, every configuration the heuristic examined, what it
// measured, and why it kept going or stopped — Figure 6 reconstructed from
// production telemetry. Duplicate events from kill/resume re-execution are
// deduplicated by their deterministic coordinates, so the story of a crashed
// daemon reads identically to an uninterrupted one.
//
// Usage: stcexplain [-session SID] [-max-examined N] [-timeline] [events.jsonl]
//
//	stcexplain -scrub DIR [-scrub-gc]
//
// With no file argument the log is read from stdin. Fleet logs (stcd's
// -obs-log) interleave many sessions, each event stamped with an "sid"
// field: -session extracts one session's story, which — by the fleet's
// determinism contract — is exactly the log a solo local-mode stcd run
// would have written. A fleet log with a single session is unambiguous and
// needs no flag; with several, stcexplain lists them and asks. The exit
// status is non-zero when the log contains no search trajectory at all, or
// when -max-examined is set and any session examined more configurations
// than that — a regression gate for the paper's "examines ~5-7 of 27
// configurations" property. Budget-constrained searches (daemon.budget,
// budget-reasoned re-tunes, fleet.realloc) render with their allocation and
// excluded-configuration counts, and count toward -max-examined like any
// other session.
//
// -timeline renders the session's span tree (the ".begin"/".end" event
// pairs spans emit) as a text timeline instead of the search story. Bar
// widths are the spans' deterministic work units — never wall-clock, which
// the telemetry contract keeps out of event logs entirely — so the timeline
// of a crashed-and-resumed daemon is byte-identical to an uninterrupted
// one. The exit status is non-zero when the log carries no span events.
//
// -scrub DIR switches to checkpoint-integrity mode: every retained
// generation under DIR — a single daemon store, or a fleet tree (one with a
// sessions/ directory), scrubbed session by session — is read and validated
// end to end, and corrupt generations are reported with their failure.
// Adding -scrub-gc deletes the corrupt ones, except when a store has no
// valid generation left: the wreckage of an all-corrupt store is evidence,
// never garbage.
// The exit status is non-zero while any corrupt generation remains on disk.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"selftune/internal/checkpoint"
	"selftune/internal/obs"
	"selftune/internal/report"
)

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "stcexplain:", err)
		os.Exit(1)
	}
}

// run is main with its seams exposed (arguments, stdin, stdout), so the exit
// behaviors — unknown session, span-free timeline, the -max-examined gate —
// are pinned by in-process tests instead of a built binary.
func run(args []string, stdin io.Reader, stdout io.Writer) error {
	fl := flag.NewFlagSet("stcexplain", flag.ContinueOnError)
	maxExamined := fl.Int("max-examined", 0, "fail if any session examined more than this many configurations (0 disables)")
	session := fl.String("session", "", "extract this session's story from a fleet log (sid stamp)")
	timeline := fl.Bool("timeline", false, "render the session's span tree as a work-unit timeline instead of the search story")
	scrub := fl.String("scrub", "", "validate every checkpoint generation under this store or fleet directory instead of reading a log")
	scrubGC := fl.Bool("scrub-gc", false, "with -scrub: delete corrupt generations (never a store's last state)")
	if err := fl.Parse(args); err != nil {
		return err
	}

	if *scrub != "" {
		return runScrub(stdout, *scrub, *scrubGC)
	}
	if *scrubGC {
		return fmt.Errorf("-scrub-gc needs -scrub DIR")
	}

	in := stdin
	switch fl.NArg() {
	case 0:
	case 1:
		f, err := os.Open(fl.Arg(0))
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	default:
		return fmt.Errorf("at most one log file argument (got %d)", fl.NArg())
	}

	evs, err := obs.ReadEvents(in)
	if err != nil {
		return err
	}
	if sids := obs.SessionIDs(evs); *session != "" || len(sids) > 0 {
		switch {
		case *session != "":
			evs = obs.FilterSession(evs, *session)
			if len(evs) == 0 {
				return fmt.Errorf("no events for session %q (log has: %v)", *session, sids)
			}
		case len(sids) == 1:
			// A fleet log with one session is unambiguous.
			evs = obs.FilterSession(evs, sids[0])
		default:
			return fmt.Errorf("fleet log interleaves %d sessions %v; pick one with -session", len(sids), sids)
		}
	}
	if *timeline {
		out := report.Timeline(evs)
		if out == "" {
			return fmt.Errorf("the log contains no span events (no .begin/.end pairs)")
		}
		fmt.Fprint(stdout, out)
		return nil
	}
	story := report.Explain(evs)
	fmt.Fprint(stdout, story.String())
	if story.Steps() == 0 {
		return fmt.Errorf("the log contains no search trajectory (no tuner.step events)")
	}
	if *maxExamined > 0 && story.MaxExamined() > *maxExamined {
		return fmt.Errorf("a session examined %d configurations, above the -max-examined gate of %d",
			story.MaxExamined(), *maxExamined)
	}
	return nil
}

// runScrub validates a checkpoint directory — a fleet tree when it holds a
// sessions/ directory, a single store otherwise — and reports per
// generation.
func runScrub(stdout io.Writer, dir string, gc bool) error {
	reps := map[string]*checkpoint.ScrubReport{}
	if fi, err := os.Stat(filepath.Join(dir, "sessions")); err == nil && fi.IsDir() {
		fs, err := checkpoint.OpenFleetStore(dir, 0)
		if err != nil {
			return err
		}
		if reps, err = fs.Scrub(gc); err != nil {
			return err
		}
	} else {
		s, err := checkpoint.OpenStore(dir, 0)
		if err != nil {
			return err
		}
		rep, err := s.Scrub(gc)
		if err != nil {
			return err
		}
		reps[""] = rep
	}

	ids := make([]string, 0, len(reps))
	for id := range reps {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	remaining := 0
	for _, id := range ids {
		rep := reps[id]
		label := "store"
		if id != "" {
			label = fmt.Sprintf("session %q", id)
		}
		fmt.Fprintf(stdout, "%s: %d valid, %d corrupt, %d removed\n", label, len(rep.Valid), len(rep.Corrupt), len(rep.Removed))
		removed := map[uint64]bool{}
		for _, g := range rep.Removed {
			removed[g] = true
		}
		for i, g := range rep.Corrupt {
			verdict := "corrupt"
			if removed[g] {
				verdict = "removed"
			} else {
				remaining++
			}
			fmt.Fprintf(stdout, "  generation %d: %s (%s)\n", g, verdict, rep.Errors[i])
		}
		if len(rep.Valid) == 0 && len(rep.Corrupt) > 0 {
			fmt.Fprintf(stdout, "  no valid generation remains; corrupt files kept as evidence\n")
		}
	}
	if remaining > 0 {
		return fmt.Errorf("%d corrupt generation(s) remain on disk", remaining)
	}
	return nil
}
