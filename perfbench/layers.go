package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"selftune/internal/cache"
	"selftune/internal/checkpoint"
	"selftune/internal/daemon"
	"selftune/internal/energy"
	"selftune/internal/engine"
	"selftune/internal/experiments"
	"selftune/internal/fleet"
	"selftune/internal/trace"
	"selftune/internal/tuner"
)

const (
	// stepBlock is how many Session.Step calls one timed block covers.
	stepBlock = 4096
	// saveEvery keeps every saveEvery-th boundary snapshot of the daemon
	// replay for the checkpoint layer: the fleet persists every 8 windows.
	saveEvery = 8
	// submitBatch is the in-process fleet replay's Submit size, about one
	// wire chunk's worth of accesses.
	submitBatch = 32 << 10
)

// runTraced is the per-layer run. It streams one untraced and one traced
// fleet round (the traced one with the fleet's registry, the session
// histograms and spans), then replays the traced round's streams through
// each layer in isolation, and the first few through the engine and tuner.
// For offline-reproduce the streams are the reproduction's profile streams.
func runTraced(c config) (outcome, error) {
	params := energy.DefaultParams()
	var out outcome
	spans := newSpanLog()

	var warmA, warmB, a, b []*tenant
	if c.workload == offlineReproduce {
		in, err := genOffline(c)
		if err != nil {
			return out, err
		}
		if b, err = offlineTenants(in); err != nil {
			return out, err
		}
		if err := references(b, params); err != nil {
			return out, err
		}
		a = b
		r, err := reproduce(context.Background(), in, params, spans)
		if err != nil {
			return out, err
		}
		ref, err := offlineReference(in, params)
		if err != nil {
			return out, err
		}
		at, f := ref.check(r)
		out.attempted += at
		out.failed += f
	} else {
		var err error
		if warmA, a, _, err = fleetRoundInputs(c, 0, params); err != nil {
			return out, err
		}
		if warmB, b, _, err = fleetRoundInputs(c, 1, params); err != nil {
			return out, err
		}
	}

	plain, err := fleetRound(filepath.Join(c.ckptRoot(), "plain"), c.seed, warmA, a, false, nil)
	if err != nil {
		return out, err
	}
	traced, err := fleetRound(filepath.Join(c.ckptRoot(), "traced"), c.seed, warmB, b, true, spans)
	if err != nil {
		return out, err
	}
	for _, st := range []*roundStats{plain, traced} {
		out.attempted += st.attempted
		out.failed += st.failed
	}
	reportFleetHists(&out, traced)
	out.set("obs.trace_overhead_ratio", plain.ingestPerSecond()/traced.ingestPerSecond(), "ratio")

	sample := b
	for i, n := 0, 0; i < len(b); i++ {
		if n += b[i].n; n >= c.layerCap {
			sample = b[:i+1]
			break
		}
	}
	decoded, err := replayLayers(c, &out, sample, spans)
	if err != nil {
		return out, err
	}
	a2, f2, err := inprocFleet(c, &out, sample, decoded)
	if err != nil {
		return out, err
	}
	out.attempted += a2
	out.failed += f2
	engineLayers(c, &out, decoded[:min(len(decoded), c.engineStreams)], params, spans)

	if err := os.RemoveAll(c.ckptRoot()); err != nil {
		return out, err
	}
	path := filepath.Join(c.outDir(), fmt.Sprintf("spans-%s-%d.jsonl", c.workload, c.seed))
	if err := spans.write(path); err != nil {
		return out, err
	}
	out.note("spans_file", path)
	out.note("span_count", len(spans.spans))
	out.note("self_s", spans.selfTimes())
	out.note("layer_sessions", len(sample))
	return out, nil
}

// offlineTenants wraps the reproduction's streams as fleet tenants.
func offlineTenants(in offlineInput) ([]*tenant, error) {
	ts := make([]*tenant, 0, len(in.streams)+1)
	for i, s := range append(append([][]trace.Access(nil), in.streams...), in.parser) {
		t, err := newTenant(fmt.Sprintf("offline-%02d", i), s)
		if err != nil {
			return nil, err
		}
		ts = append(ts, t)
	}
	return ts, nil
}

// reportFleetHists reads the traced round's fleet and daemon histograms and
// the client-side counts.
func reportFleetHists(out *outcome, st *roundStats) {
	h := st.reg.Histogram
	perCount := func(name string) float64 {
		if n := h(name).Count(); n > 0 {
			return h(name).Sum() / float64(n)
		}
		return 0
	}
	out.set("fleet.queue_wait_s_mean", perCount("fleet_queue_wait_seconds"), "s")
	out.set("fleet.batch_s_mean", perCount("fleet_batch_seconds"), "s")
	out.set("fleet.batches", float64(h("fleet_batch_seconds").Count()), "count")
	out.set("fleet.conn_read_s_sum", h("fleet_conn_read_seconds").Sum(), "s")
	out.set("daemon.search_s_mean", perCount("daemon_search_seconds"), "s")
	out.set("daemon.persist_s_mean", perCount("daemon_persist_seconds"), "s")
	out.set("client.ack_wait_s_mean", mean(st.ackWaits), "s")
	out.set("client.retried_attempts", float64(st.retried), "count")
	out.set("client.failed_sessions", float64(st.failed), "count")
}

// pendingState is a boundary snapshot captured during the daemon replay.
type pendingState struct {
	trace string
	st    *checkpoint.State
}

// replayLayers replays each tenant's stream through the decode, daemon,
// cache and checkpoint layers in isolation, and returns the decoded
// streams for the layers that follow.
func replayLayers(c config, out *outcome, ts []*tenant, spans *spanLog) ([][]trace.Access, error) {
	var (
		decodeDur, settledDur, searchingDur, boundaryDur, cacheDur time.Duration
		wireBytes, accesses, settledN, searchingN, boundaries      int
		retunes, searchWindows, mallocs                            uint64
		pending                                                    []pendingState
		decoded                                                    = make([][]trace.Access, len(ts))
	)
	for i, t := range ts {
		root := spans.id()
		r0 := time.Now()

		// trace: StreamDecoder.Feed at the wire chunk size.
		dec := &trace.StreamDecoder{}
		accs := make([]trace.Access, 0, t.n)
		for off := 0; off < len(t.wire); off += wireChunk {
			t0 := time.Now()
			var err error
			accs, err = dec.Feed(t.wire[off:min(off+wireChunk, len(t.wire))], accs)
			t1 := time.Now()
			if err != nil {
				return nil, fmt.Errorf("decode %s: %w", t.id, err)
			}
			decodeDur += t1.Sub(t0)
			spans.add(0, root, t.id, "trace.decode_chunk", t0, t1)
		}
		if err := dec.Finish(); err != nil {
			return nil, fmt.Errorf("decode %s: %w", t.id, err)
		}
		decoded[i] = accs
		wireBytes += len(t.wire)
		accesses += len(accs)

		// daemon: Session.Step in blocks, classified at block start.
		var bounds []int
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		s := daemon.NewSession(daemon.Options{})
		wasSearching := true
		for off := 0; off < len(accs); off += stepBlock {
			end := min(off+stepBlock, len(accs))
			searching := s.Tuning()
			t0 := time.Now()
			for j := off; j < end; j++ {
				boundary, err := s.Step(accs[j].Addr, accs[j].IsWrite())
				if err != nil {
					return nil, fmt.Errorf("step %s: %w", t.id, err)
				}
				if boundary {
					if wasSearching {
						searchWindows++
					}
					wasSearching = s.Tuning()
					if len(bounds)%saveEvery == saveEvery-1 {
						pending = append(pending, pendingState{t.id, s.Pending()})
					}
					bounds = append(bounds, j)
				}
			}
			t1 := time.Now()
			if searching {
				searchingDur += t1.Sub(t0)
				searchingN += end - off
			} else {
				settledDur += t1.Sub(t0)
				settledN += end - off
			}
			spans.add(0, root, t.id, "daemon.step_block", t0, t1)
		}
		runtime.ReadMemStats(&m1)
		mallocs += m1.Mallocs - m0.Mallocs
		retunes += s.Retunes()
		s.Close()

		// daemon: the boundary steps alone, timed on an identical replay
		// (the session is deterministic, so the boundaries fall at the
		// same positions).
		s = daemon.NewSession(daemon.Options{})
		next := 0
		for j, acc := range accs {
			if next < len(bounds) && j == bounds[next] {
				t0 := time.Now()
				_, err := s.Step(acc.Addr, acc.IsWrite())
				t1 := time.Now()
				if err != nil {
					return nil, fmt.Errorf("step %s: %w", t.id, err)
				}
				boundaryDur += t1.Sub(t0)
				spans.add(0, root, t.id, "daemon.boundary_step", t0, t1)
				next++
				continue
			}
			if _, err := s.Step(acc.Addr, acc.IsWrite()); err != nil {
				return nil, fmt.Errorf("step %s: %w", t.id, err)
			}
		}
		s.Close()
		boundaries += len(bounds)

		// cache: Configurable.Access at the session's searched config.
		cc, err := cache.NewConfigurable(t.cfg)
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		for _, acc := range accs {
			cc.Access(acc.Addr, acc.IsWrite())
		}
		t1 := time.Now()
		cacheDur += t1.Sub(t0)
		spans.add(0, root, t.id, "cache.access_replay", t0, t1)
		spans.add(root, 0, t.id, "replay", r0, time.Now())
	}

	// checkpoint: Store.Save of the captured snapshots.
	store, err := checkpoint.OpenStore(filepath.Join(c.ckptRoot(), "saves"), 4)
	if err != nil {
		return nil, err
	}
	var saveDur time.Duration
	var saveBytes int
	for _, p := range pending {
		b, err := checkpoint.Encode(p.st)
		if err != nil {
			return nil, err
		}
		saveBytes += len(b)
		t0 := time.Now()
		if _, err := store.Save(p.st); err != nil {
			return nil, err
		}
		t1 := time.Now()
		saveDur += t1.Sub(t0)
		spans.add(0, 0, p.trace, "checkpoint.save", t0, t1)
	}

	n := float64(accesses)
	out.set("trace.decode_ns_per_access", nsPer(decodeDur, accesses), "ns")
	out.set("trace.wire_bytes_per_access", float64(wireBytes)/n, "B")
	out.set("daemon.step_settled_ns_per_access", nsPer(settledDur, settledN), "ns")
	out.set("daemon.step_searching_ns_per_access", nsPer(searchingDur, searchingN), "ns")
	out.set("daemon.searching_share", float64(searchingN)/n, "ratio")
	out.set("daemon.boundary_step_us_mean", nsPer(boundaryDur, boundaries)/1e3, "us")
	out.set("daemon.retunes", float64(retunes), "count")
	out.set("daemon.search_windows", float64(searchWindows), "count")
	out.set("daemon.step_allocs_per_access", float64(mallocs)/n, "count")
	out.set("cache.access_ns_per_access", nsPer(cacheDur, accesses), "ns")
	out.set("checkpoint.save_us_mean", nsPer(saveDur, len(pending))/1e3, "us")
	out.set("checkpoint.bytes_per_save", float64(saveBytes)/float64(max(len(pending), 1)), "B")
	out.note("layer_accesses", accesses)
	out.note("checkpoint_saves", len(pending))
	return decoded, nil
}

// inprocFleet replays the decoded streams through a fresh fleet with
// Open/Submit/CloseSession on maxParallel goroutines (no TCP, no decode),
// checks the reports, and measures throughput and allocations.
func inprocFleet(c config, out *outcome, ts []*tenant, decoded [][]trace.Access) (attempted, failed int, err error) {
	m, err := fleet.New(fleetOptions(filepath.Join(c.ckptRoot(), "inproc")))
	if err != nil {
		return 0, 0, err
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	var (
		next atomic.Int64
		wg   sync.WaitGroup
		errs = make([]error, len(ts))
	)
	t0 := time.Now()
	for k := 0; k < maxParallel; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(ts) {
					return
				}
				errs[i] = submitAll(m, ts[i].id, decoded[i])
			}
		}()
	}
	wg.Wait()
	wall := time.Since(t0)
	runtime.ReadMemStats(&m1)
	if err := m.Close(); err != nil {
		return 0, 0, err
	}
	reports := map[string]fleet.SessionReport{}
	for _, r := range m.Report().Sessions {
		reports[r.ID] = r
	}
	total := 0
	for i, t := range ts {
		total += t.n
		attempted++
		if got, ok := reports[t.id]; errs[i] != nil || !ok || !t.matches(got) {
			failed++
			fmt.Fprintf(os.Stderr, "perfbench: in-process session %s failed its check: %v\n", t.id, errs[i])
		}
	}
	out.set("fleet.inproc_accesses_per_s", float64(total)/wall.Seconds(), "1/s")
	out.set("fleet.allocs_per_access", float64(m1.Mallocs-m0.Mallocs)/float64(total), "count")
	out.set("fleet.alloc_bytes_per_access", float64(m1.TotalAlloc-m0.TotalAlloc)/float64(total), "B")
	return attempted, failed, nil
}

func submitAll(m *fleet.Manager, id string, accs []trace.Access) error {
	if err := m.Open(id); err != nil {
		return err
	}
	for off := 0; off < len(accs); off += submitBatch {
		if err := m.Submit(id, accs[off:min(off+submitBatch, len(accs))]); err != nil {
			return err
		}
	}
	return m.CloseSession(id)
}

// engineLayers times the offline layers over the first streams: the default
// 27-config sweep, the fused sweep, the Figure 2 sweep, and the paper's
// heuristic with its exhaustive twin (memo hit ratio, examined count).
func engineLayers(c config, out *outcome, streams [][]trace.Access, p *energy.Params, spans *spanLog) {
	var (
		sweepDur, fusedDur, fig2Dur, searchDur  time.Duration
		sweepWork, fig2Work, searches, examined int
		hits, misses                            uint64
	)
	all := cache.AllConfigs()
	for i, mixed := range streams {
		name := fmt.Sprintf("engine-%d", i)
		inst, data := trace.Split(trace.NewSliceSource(mixed))
		for _, s := range [][]trace.Access{inst[:min(len(inst), c.engineLen)], data[:min(len(data), c.engineLen)]} {
			t0 := time.Now()
			engine.New(s, engine.Configurable(p)).EvaluateAll(all, 1)
			t1 := time.Now()
			engine.New(s, engine.Configurable(p), engine.WithFusedSweep()).EvaluateAll(all, 1)
			t2 := time.Now()
			sweepDur += t1.Sub(t0)
			fusedDur += t2.Sub(t1)
			sweepWork += len(s) * len(all)
			spans.add(0, 0, name, "engine.sweep27", t0, t1)
			spans.add(0, 0, name, "fastsim.fused_sweep27", t1, t2)

			ev := tuner.NewTraceEvaluator(s, p)
			t3 := time.Now()
			res := tuner.SearchPaper(ev)
			t4 := time.Now()
			spans.add(0, 0, name, "tuner.search_paper", t3, t4)
			searchDur += t4.Sub(t3)
			searches++
			examined += res.NumExamined()
			tuner.ExhaustiveWorkers(ev, all, 1)
			cnt := ev.Engine().Counters()
			hits += cnt.MemoHits.Load()
			misses += cnt.MemoMisses.Load()
		}
		d := mixed[:min(len(mixed), 2*c.engineLen)]
		t0 := time.Now()
		if _, err := experiments.Figure2TraceCtx(context.Background(), name, d, p, 1); err == nil {
			t1 := time.Now()
			fig2Dur += t1.Sub(t0)
			_, dd := trace.Split(trace.NewSliceSource(d))
			fig2Work += len(dd) * fig2Sizes
			spans.add(0, 0, name, "engine.figure2", t0, t1)
		}
	}
	out.set("engine.sweep27_ns_per_access_config", nsPer(sweepDur, sweepWork), "ns")
	out.set("fastsim.fused_sweep27_ns_per_access_config", nsPer(fusedDur, sweepWork), "ns")
	out.set("engine.figure2_ns_per_access_config", nsPer(fig2Dur, fig2Work), "ns")
	out.set("engine.memo_hit_ratio", float64(hits)/float64(max(hits+misses, 1)), "ratio")
	out.set("tuner.examined_per_search", float64(examined)/float64(max(searches, 1)), "count")
	out.set("tuner.search_paper_ms_mean", searchDur.Seconds()*1e3/float64(max(searches, 1)), "ms")
}

func nsPer(d time.Duration, n int) float64 {
	if n == 0 {
		return 0
	}
	return float64(d.Nanoseconds()) / float64(n)
}
