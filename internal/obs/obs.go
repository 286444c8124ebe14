// Package obs is the repository's flight recorder: a zero-dependency
// telemetry core that every layer — the replay engine, the tuning heuristic,
// the daemon, the CLIs — reports into. It has three pieces:
//
//   - a Recorder interface for structured events, with a JSONL sink built on
//     log/slog and a no-op default that costs nothing (hot paths guard event
//     construction behind Enabled, so a disabled recorder adds zero
//     allocations — pinned by benchmark in internal/engine);
//   - a counter/gauge Registry rendered as Prometheus text (cmd/stcd serves
//     it at /metrics);
//   - the shared -v/-quiet CLI verbosity flags.
//
// The determinism contract: events are keyed by coordinates the computation
// itself defines — session, window, step, config — never by wall-clock time.
// The JSONL sink strips slog's time attribute, so recording the same run
// twice produces byte-identical logs, and a killed-and-resumed daemon
// re-emits bit-identical decision events for the windows it re-executes.
// Telemetry is strictly observational: enabling it must not change any
// tuning outcome (the inertness property pinned by internal/daemon's tests).
package obs

import (
	"context"
	"log/slog"
)

// Event is one structured telemetry record. Session, Window and Step are the
// deterministic coordinates (ordinals defined by the computation, not the
// clock); Config names the cache configuration under discussion when there
// is one; Fields carries the event-specific payload.
type Event struct {
	// Name is the dotted event name, e.g. "tuner.step" or "daemon.settle".
	Name string
	// Session is the tuning-session ordinal (0 for the first session; a
	// daemon's re-tunes increment it).
	Session uint64
	// Window is the measurement-window ordinal the event belongs to.
	Window uint64
	// Step is the heuristic-step ordinal within the session.
	Step uint64
	// Config is the configuration's string form, "" when not applicable.
	Config string
	// Fields is the event-specific payload, in emission order.
	Fields []slog.Attr
}

// Recorder receives telemetry events. Implementations must be safe for
// concurrent use. Hot paths must guard event construction behind Enabled so
// a disabled recorder costs no allocations.
type Recorder interface {
	// Enabled reports whether Record does anything; callers skip building
	// events entirely when it is false.
	Enabled() bool
	// Record emits one event.
	Record(e Event)
}

// Nop is the disabled recorder: Enabled is false and Record does nothing.
var Nop Recorder = nopRecorder{}

type nopRecorder struct{}

func (nopRecorder) Enabled() bool { return false }
func (nopRecorder) Record(Event)  {}

// OrNop normalises a possibly nil recorder so call sites never nil-check.
func OrNop(r Recorder) Recorder {
	if r == nil {
		return Nop
	}
	return r
}

// With returns a recorder that stamps the given fields onto every event —
// how a shared sink is scoped to one actor (e.g. the instruction versus the
// data cache in a two-cache system).
func With(r Recorder, fields ...slog.Attr) Recorder {
	r = OrNop(r)
	if !r.Enabled() || len(fields) == 0 {
		return r
	}
	return scoped{r: r, fields: fields}
}

type scoped struct {
	r      Recorder
	fields []slog.Attr
}

func (s scoped) Enabled() bool { return true }

func (s scoped) Record(e Event) {
	e.Fields = append(append([]slog.Attr(nil), s.fields...), e.Fields...)
	s.r.Record(e)
}

// Tee fans events out to several recorders (nil entries are dropped). It is
// enabled when any target is.
func Tee(rs ...Recorder) Recorder {
	var live []Recorder
	for _, r := range rs {
		if r != nil && r.Enabled() {
			live = append(live, r)
		}
	}
	switch len(live) {
	case 0:
		return Nop
	case 1:
		return live[0]
	}
	return tee(live)
}

type tee []Recorder

func (t tee) Enabled() bool { return true }

func (t tee) Record(e Event) {
	for _, r := range t {
		r.Record(e)
	}
}

// ctxKey carries a Recorder through a context.
type ctxKey struct{}

// IntoContext returns a context carrying rec, so telemetry reaches code that
// already threads a context (the experiment sweeps) without new parameters.
func IntoContext(ctx context.Context, rec Recorder) context.Context {
	return context.WithValue(ctx, ctxKey{}, OrNop(rec))
}

// FromContext returns the recorder carried by ctx, or Nop.
func FromContext(ctx context.Context) Recorder {
	if r, ok := ctx.Value(ctxKey{}).(Recorder); ok {
		return r
	}
	return Nop
}
