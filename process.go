package triggerman

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"triggerman/internal/admission"
	"triggerman/internal/agg"
	"triggerman/internal/catalog"
	"triggerman/internal/datasource"
	"triggerman/internal/discrim"
	"triggerman/internal/exec"
	"triggerman/internal/minisql"
	"triggerman/internal/parser"
	"triggerman/internal/predindex"
	"triggerman/internal/taskq"
	"triggerman/internal/trace"
	"triggerman/internal/types"
)

// capture is the external entry point for a freshly captured update:
// the closed check and admission control run here, before the token is
// durably enqueued. Producers (TableSource, StreamSource) call capture;
// internal re-entries that must survive shutdown or bypass the closed
// gate (cascaded execSQL updates, dead-letter requeue) call admit
// directly.
func (s *System) capture(tok datasource.Token) error {
	if s.isClosed() {
		return errClosed
	}
	return s.admit(tok)
}

// admit runs the token through admission control (§6's capture point is
// where overload must be pushed back, before the token costs queue
// space). Three outcomes:
//
//   - Admit: the token proceeds into the queue (apply).
//   - Shed: batch-class work over the soft watermark is diverted to the
//     dead-letter table — accounted, requeueable later, never silently
//     dropped — and the capture call reports success.
//   - Reject: the hard watermark or rate limit is breached; the caller
//     gets a retryable *admission.OverloadError and keeps the token.
func (s *System) admit(tok datasource.Token) error {
	// Clustered deployments route before admission: the overload verdict
	// for a source belongs to the node that owns it. This covers every
	// local entry point — producers, cascaded execSQL updates, and
	// dead-letter requeue — so a cross-source cascade whose target lives
	// elsewhere ships to its owner instead of entering this pipeline.
	if r := s.router(); r != nil {
		if src, ok := s.reg.ByID(tok.SourceID); ok {
			if handled, err := r.Route(src.Name, tok, ""); handled {
				return err
			}
		}
	}
	if s.adm != nil {
		verdict, err := s.adm.Admit(tok.SourceID, s.sourceClass(tok.SourceID))
		switch verdict {
		case admission.VerdictReject:
			return err
		case admission.VerdictShed:
			s.shedToken(tok)
			return nil
		}
	}
	return s.apply(tok)
}

// taskPri maps a token's source class to its run-queue priority:
// interactive sources ride the high queue, batch sources the low queue
// (aged by taskq so they cannot starve).
func (s *System) taskPri(src int32) taskq.Priority {
	if s.sourceClass(src) == admission.Batch {
		return taskq.Low
	}
	return taskq.High
}

// apply accepts an admitted update descriptor into the one token
// pipeline, enqueue → pump → (hop) → stage → fire: it is enqueued
// (persistent or memory queue per Figure 1) and a pump is run — inline
// when Synchronous, else as a process-token task — to take it out
// again. No closed check here: Close drains the pool, and tokens
// cascaded by in-flight actions must still be accepted during that
// drain or they would be lost mid-shutdown.
func (s *System) apply(tok datasource.Token) error {
	return s.applyTraced(tok, 0, 0)
}

// applyTraced is apply with an optional wire-propagated trace context:
// a nonzero sampled parent continues the client's trace through
// capture→action (the span's record carries the client's id, its
// metrics land under the server's seq — one trace, both sides of the
// wire).
func (s *System) applyTraced(tok datasource.Token, parent uint64, flags byte) error {
	sp := s.tracer.BeginRemote(tok.SourceID, tok.Op.String(), parent, flags)
	// Enqueue under the queue retry policy: a transient page fault must
	// not lose a captured update. A retried enqueue whose first attempt
	// partially succeeded can duplicate the token — delivery is
	// at-least-once, never at-most-zero.
	var queued datasource.Token
	if _, err := s.queueRetry.Do(func() error {
		var e error
		queued, e = s.queue.Enqueue(tok)
		return e
	}); err != nil {
		sp.Finish()
		return err
	}
	sp.Mark(trace.StageCapture)
	s.tracer.Attach(queued.Seq, sp)
	s.cTokensIn.Inc()
	// Either way the retry covers transient *dequeue* failures only: the
	// tokens are still queued, so pumping again finds them. A token that
	// did leave the queue is stage's, so a re-run can never strand one.
	if s.pool == nil {
		_, err := s.queueRetry.Do(func() error { return s.pump(taskq.NoSlot) })
		return err
	}
	// The key routes the task to the source's home shard: one source's
	// tokens drain from one queue (and batch together), while idle
	// drivers steal across.
	return s.pool.Submit(taskq.Task{
		Kind: taskq.ProcessToken, Key: sourceKey(tok.SourceID),
		Pri:   s.taskPri(tok.SourceID),
		Retry: &s.queueRetry, RunSlot: s.pump,
	})
}

// sourceKey maps a data source ID to a non-zero task-queue shard key
// (taskq treats key 0 as "unkeyed").
func sourceKey(id int32) int64 { return int64(id) + 1 }

// pump dequeues up to tokenBatch tokens and sends each down the rest of
// the pipeline in queue order (task type 1 of §6). Tracing and
// attribution stay per-token: every token has its own span. An error
// return means the dequeue itself failed; tokens returned alongside it
// have already left the queue, so they are sent on before the error is
// surfaced for retry. An ordered pump holds dispatchMu across the
// batch, so its tokens reach the task queue (see hop) in dequeue order.
func (s *System) pump(slot int) error {
	if s.ordered {
		s.dispatchMu.Lock()
		defer s.dispatchMu.Unlock()
	}
	batch, err := s.queue.DequeueBatch(s.tokenBatch)
	if len(batch) > 0 {
		s.cBatches.Inc()
		s.cBatchTokens.Add(int64(len(batch)))
	}
	for _, tok := range batch {
		sp := s.tracer.Dequeued(tok.Seq)
		if s.ordered {
			s.hop(tok, sp)
		} else {
			s.stage(tok, predindex.AllParts, slot, sp)
		}
		sp.Finish()
	}
	if err != nil {
		return fmt.Errorf("dequeue: %w", err)
	}
	return nil
}

// hop is SourceFIFO's step between dequeue and stage: the token is
// submitted as a serial task keyed by its source, so per-source
// submission order equals dequeue order equals enqueue order, and
// taskq's serial-key discipline carries that order through to
// execution even with work stealing. A token whose submission fails
// has left the queue without reaching stage, and is quarantined here
// to keep the fire-or-dead-letter invariant.
func (s *System) hop(tok datasource.Token, sp *trace.Span) {
	err := s.submitSpanned(taskq.Task{
		Kind: taskq.ProcessToken, Key: sourceKey(tok.SourceID), Serial: true,
		Pri: s.taskPri(tok.SourceID),
	}, sp, func(slot int) error {
		s.stage(tok, predindex.AllParts, slot, sp)
		return nil
	})
	if err != nil {
		s.quarantine(catalog.DeadToken, 0, tok, err, 1)
	}
}

// submitSpanned submits t to run fn on behalf of a token whose span is
// sp. A traced token's task holds its own span reference until it is
// done (it may outlive the caller's), and times its run-queue wait —
// the scheduler half of the queue-wait decomposition (StageDequeue
// covered the token-queue half).
func (s *System) submitSpanned(t taskq.Task, sp *trace.Span, fn func(slot int) error) error {
	t.RunSlot = fn
	if sp != nil {
		sp.Retain()
		submitAt := time.Now()
		t.RunSlot = func(slot int) error {
			sp.Observe(trace.StageTaskWait, time.Since(submitAt))
			return fn(slot)
		}
		t.OnDone = func(error) { sp.Finish() }
	}
	err := s.pool.Submit(t)
	if err != nil {
		sp.Finish()
	}
	return err
}

// stage runs a dequeued token's work — route, the §5.4 algorithm —
// under the queue retry policy, and is the one place that work is
// retried and given up on. The token has already left the queue, so on
// exhaustion or a permanent fault it is quarantined in the dead-letter
// table — the invariant is fire-or-dead-letter, never silently dropped.
// Retries re-run the whole step; alpha-memory maintenance is not
// idempotent under partial failure, so delivery is at-least-once.
func (s *System) stage(tok datasource.Token, part, slot int, sp *trace.Span) {
	attempts, err := s.queueRetry.Do(func() error { return s.route(tok, part, slot, sp) })
	if err != nil {
		s.quarantine(catalog.DeadToken, 0, tok, err, attempts)
	}
}

// route is the §5.4 algorithm: probe the predicate index once per image
// the token has, buffer the matches so the index is released, then hand
// each match to what its Ref names — a network node (MultiVar), an
// aggregate state (Aggregate), or the trigger's action.
//
// The whole-token step (part is AllParts) owns the state: it probes the
// token itself and, for an update on a source that feeds a network or
// an aggregate, the old image too (the only case where two images can
// match different refs that both matter), brings every alpha memory and
// group up to date, and only then fires — a self-join's two refs must
// both see the tuple before either enumerates. With partition fan-out
// it fires nothing itself: it submits one token-conditions task per
// partition (task type 3), and each of those routes its own part,
// firing only. A source with no network or aggregate ref then costs the
// whole-token step no probe at all.
func (s *System) route(tok datasource.Token, part, slot int, sp *trace.Span) error {
	whole := part == predindex.AllParts
	s.mu.RLock()
	stateful := whole && s.sources[tok.SourceID].stateful > 0
	s.mu.RUnlock()
	fires := !whole || !s.fanOut
	var ms []predindex.Match
	nOld := 0
	if stateful || fires {
		buf := matchBufs.Get().(*[]predindex.Match)
		ms = (*buf)[:0]
		defer func() {
			*buf = ms[:0]
			matchBufs.Put(buf)
		}()
		var begin time.Time
		if sp != nil {
			begin = time.Now()
		}
		ctx := predindex.MatchCtx{Part: part, Slot: slot}
		var err error
		if stateful && tok.Op == datasource.OpUpdate && tok.Old != nil {
			ms, err = s.probe(ms, image(tok, true), ctx, false)
			nOld = len(ms)
		}
		if err == nil {
			ms, err = s.probe(ms, tok, ctx, fires)
		}
		if sp != nil {
			sp.Observe(trace.StageMatch, time.Since(begin))
		}
		if err != nil {
			return err
		}
	}
	if whole {
		var begin time.Time
		if sp != nil {
			begin = time.Now()
		}
		if stateful {
			// gone are the matches of the image leaving the source, come
			// those of the image arriving; a delete token is its own old
			// image.
			gone, come := ms[:nOld], ms[nOld:]
			if tok.Op == datasource.OpDelete {
				gone, come = come, nil
			}
			s.maintain(gone, tok, true, sp)
			s.maintain(come, tok, false, sp)
			s.applyAggregates(gone, come, tok, sp)
		}
		if sp != nil {
			sp.Observe(trace.StagePropagate, time.Since(begin))
		}
		if s.fanOut {
			return s.fanOutParts(tok, sp)
		}
	}
	for _, m := range ms[nOld:] {
		// Gator and aggregate triggers fired during their upkeep.
		if m.Gator || m.Aggregate || !m.FireMask.Matches(tok) || !s.cat.IsFireable(m.TriggerID) {
			continue
		}
		s.cTokensMatch.Inc()
		// A transient Pin/Enumerate fault is retried per firing; an
		// exhausted or permanent one quarantines only this trigger's
		// firing — the remaining matches still run.
		attempts, err := s.actionRetry.Do(func() error {
			return s.fireTrigger(m, tok, sp)
		})
		s.prof.ActionRetries(m.TriggerID, attempts)
		if err != nil {
			s.quarantine(catalog.DeadAction, m.TriggerID, tok, err, attempts)
		}
	}
	return nil
}

// matchBufs recycles route's match buffers. A join or aggregate source
// shows a token dozens of 96-byte matches; grown afresh per token the
// buffer was a fifth of the bytes such a token allocated.
var matchBufs = sync.Pool{New: func() any { return new([]predindex.Match) }}

// image is one tuple image of a token as a token of its own: the old
// image as a delete, the new image as an insert.
func image(tok datasource.Token, old bool) datasource.Token {
	if old {
		return datasource.Token{SourceID: tok.SourceID, Op: datasource.OpDelete, Old: tok.Old}
	}
	return datasource.Token{SourceID: tok.SourceID, Op: datasource.OpInsert, New: tok.New}
}

// probe is the pipeline's one index probe: it appends img's matches to
// ms — every match when all is set, else only those a network or an
// aggregate must hear of. The callback runs under the signature entry's
// read lock, so it buffers and does nothing else.
func (s *System) probe(ms []predindex.Match, img datasource.Token, ctx predindex.MatchCtx, all bool) ([]predindex.Match, error) {
	err := s.pidx.Match(img, ctx, func(m predindex.Match) bool {
		if all || m.MultiVar || m.Aggregate {
			ms = append(ms, m)
		}
		return true
	})
	return ms, err
}

// fanOutParts submits one token-conditions task per partition. A
// failed submission fails the whole token: partitions already
// submitted still fire, and stage dead-letters the token so the rest
// are not lost.
func (s *System) fanOutParts(tok datasource.Token, sp *trace.Span) error {
	pri := s.taskPri(tok.SourceID)
	for p := 0; p < s.partitions; p++ {
		if err := s.submitSpanned(taskq.Task{Kind: taskq.TokenConditions, Pri: pri}, sp,
			func(slot int) error {
				s.stage(tok, p, slot, sp)
				return nil
			}); err != nil {
			return fmt.Errorf("partition %d of %d: %w", p, s.partitions, err)
		}
	}
	return nil
}

// maintain keeps multi-variable triggers' join state consistent with
// one image of the token: its tuple leaves (removal) or enters the
// alpha memory of every variable whose selection it matched. A-TREAT
// triggers only maintain here (route fires them afterwards); Gator
// triggers maintain AND fire here, because their incremental protocol
// creates and retracts root combinations at maintenance time.
func (s *System) maintain(ms []predindex.Match, tok datasource.Token, removal bool, sp *trace.Span) {
	for _, m := range ms {
		if !m.MultiVar {
			continue
		}
		lt, unpin, err := s.cat.Pin(m.TriggerID)
		if err != nil {
			s.noteErrorAt("match", m.TriggerID, err)
			continue
		}
		switch {
		case lt.Gator != nil:
			// Retraction fires only for genuine delete tokens whose fire
			// mask accepts deletes.
			var pnode discrim.PNode
			var ferr error
			if (!removal || tok.Op == datasource.OpDelete) && m.FireMask.Matches(tok) && s.cat.IsFireable(m.TriggerID) {
				pnode = s.comboRunner(*lt, tok, sp, &ferr)
				s.cTokensMatch.Inc()
			}
			if err := lt.Gator.NotifyToken(int(m.NextNode), image(tok, removal), pnode); err != nil {
				s.noteErrorAt("gator", m.TriggerID, err)
			}
			if ferr != nil {
				s.noteErrorAt("action", m.TriggerID, ferr)
			}
		case lt.Network == nil: // loaded without a network: nothing to keep
		case removal:
			lt.Network.RemoveTuple(int(m.NextNode), tok.Old)
		default:
			lt.Network.AddTuple(int(m.NextNode), tok.New)
		}
		unpin()
	}
}

// applyAggregates feeds group-by/having triggers. An aggregate trigger
// has one tuple variable, so it appears at most once per image; an
// update pairs its two appearances, because the group the old image
// leaves and the group the new one joins must be judged together. The
// lists hold dozens of matches, so pairing is a scan.
func (s *System) applyAggregates(gone, come []predindex.Match, tok datasource.Token, sp *trace.Span) {
	in := func(ms []predindex.Match, id uint64) bool {
		return slices.ContainsFunc(ms, func(m predindex.Match) bool { return m.Aggregate && m.TriggerID == id })
	}
	for _, m := range come {
		if m.Aggregate {
			s.applyAggregate(m.TriggerID, tok, in(gone, m.TriggerID), true, sp)
		}
	}
	for _, m := range gone {
		if m.Aggregate && !in(come, m.TriggerID) {
			s.applyAggregate(m.TriggerID, tok, true, false, sp)
		}
	}
}

// applyAggregate updates one trigger's incremental aggregates with the
// token images that passed its selection; having-condition transitions
// fire the action with aggregate values substituted in.
func (s *System) applyAggregate(id uint64, tok datasource.Token, oldMatch, newMatch bool, sp *trace.Span) {
	if !s.cat.IsFireable(id) {
		// Like the paper's isEnabled semantics, disabled triggers are
		// inert: they do not maintain state either.
		return
	}
	lt, unpin, err := s.cat.Pin(id)
	if err != nil {
		s.noteErrorAt("aggregate", id, err)
		return
	}
	defer unpin()
	if lt.Agg == nil {
		return
	}
	var op agg.Op
	switch tok.Op {
	case datasource.OpInsert:
		op = agg.OpInsert
	case datasource.OpDelete:
		op = agg.OpDelete
	default:
		op = agg.OpUpdate
	}
	fires, err := lt.Agg.State.Apply(op, tok.Old, tok.New, oldMatch, newMatch, lt.Agg.Having)
	if err != nil {
		s.noteErrorAt("aggregate", id, err)
		return
	}
	for _, f := range fires {
		s.cTokensMatch.Inc()
		action, err := agg.SubstituteAction(lt.Action, lt.Agg.Schema, lt.Agg.Specs, f.Aggregates)
		if err != nil {
			s.noteErrorAt("aggregate", id, err)
			continue
		}
		ltCopy := *lt
		ltCopy.Action = action
		olds := []types.Tuple{tok.Old}
		if err := s.runCombo(ltCopy, tok, []types.Tuple{f.Representative}, olds, sp); err != nil {
			s.noteErrorAt("action", id, err)
		}
	}
}

// comboRunner builds the P-node callback that executes a trigger's
// action for each satisfying combination. The first failure stops the
// enumeration and is left in *ferr.
func (s *System) comboRunner(lt catalog.LoadedTrigger, tok datasource.Token, sp *trace.Span, ferr *error) discrim.PNode {
	return func(c discrim.Combo) bool {
		olds := make([]types.Tuple, len(c.Tuples))
		if c.SeedVar >= 0 && c.SeedVar < len(olds) {
			olds[c.SeedVar] = tok.Old
		}
		*ferr = s.runCombo(lt, tok, c.Tuples, olds, sp)
		return *ferr == nil
	}
}

// fireTrigger pins the trigger (§5.4's trigger-cache pin), runs join and
// temporal condition testing through the A-TREAT network when present,
// and executes the action for every satisfying combination.
func (s *System) fireTrigger(m predindex.Match, tok datasource.Token, sp *trace.Span) error {
	lt, unpin, err := s.cat.Pin(m.TriggerID)
	if err != nil {
		return err
	}
	defer unpin()

	if lt.Network == nil {
		// Single-variable trigger: the selection match is the whole
		// condition; fire directly with the effective tuple.
		olds := []types.Tuple{tok.Old}
		return s.runCombo(*lt, tok, []types.Tuple{tok.Effective()}, olds, sp)
	}
	var ferr error
	if err := lt.Network.Enumerate(int(m.NextNode), tok, s.comboRunner(*lt, tok, sp, &ferr)); err != nil {
		return err
	}
	return ferr
}

// runCombo executes a trigger's action for one satisfying combination,
// inline or as a rule-action task per Options.ActionTasks.
func (s *System) runCombo(lt catalog.LoadedTrigger, tok datasource.Token, tuples, olds []types.Tuple, sp *trace.Span) error {
	if s.FireHook != nil {
		s.FireHook(lt.Info.ID, tuples)
	}
	binding := exec.Binding{VarIndex: lt.VarIndex, Tuples: tuples, Olds: olds}
	schemas := lt.Schemas
	schemaOf := func(vi int) *types.Schema {
		if vi < 0 || vi >= len(schemas) {
			return nil
		}
		return schemas[vi]
	}
	action := lt.Action
	id := lt.Info.ID
	// Traced firings run through a per-firing Executor copy whose
	// Observe hook stamps event delivery, so the deliver stage lands on
	// this token's span without changing Execute's signature.
	exe := s.exe
	if sp != nil {
		e := *s.exe
		e.Observe = func(phase string, d time.Duration) {
			if phase == "deliver" {
				sp.Observe(trace.StageDeliver, d)
			}
		}
		exe = &e
	}
	run := func(int) error {
		s.cActionsRun.Inc()
		// Timed unconditionally: the elapsed wall time feeds both the
		// sampled trace span and the always-on per-trigger attribution.
		begin := time.Now()
		// The action runs under the action retry policy: transient
		// faults back off and retry, panics and semantic errors fail
		// fast, and either way an undeliverable firing is quarantined in
		// the dead-letter table so the remaining combinations (and
		// triggers) keep firing.
		attempts, err := s.actionRetry.Do(func() error {
			return exe.Execute(id, action, binding, schemaOf)
		})
		elapsed := time.Since(begin)
		if sp != nil {
			sp.Observe(trace.StageAction, elapsed)
		}
		s.prof.ObserveAction(id, elapsed)
		s.prof.ActionRetries(id, attempts)
		if err != nil {
			s.quarantine(catalog.DeadAction, id, tok, err, attempts)
		}
		return nil
	}
	if s.pool == nil || !s.opts.ActionTasks {
		// Task type 4: the token's actions run inside its own task.
		return run(taskq.NoSlot)
	}
	// Rule action concurrency (task type 2 of §6). The action inherits
	// the *trigger's* declared class, not the source's — a batch trigger
	// on a shared source must not ride the interactive queue.
	pri := taskq.High
	if lt.Info.Class == admission.Batch {
		pri = taskq.Low
	}
	return s.submitSpanned(taskq.Task{Kind: taskq.RunAction, Pri: pri}, sp, run)
}

// CapturingRunner wraps the database so execSQL actions generate update
// descriptors for tables registered as data sources — the cascade path.
type capturingRunner struct{ sys *System }

// ExecStmt implements exec.StmtRunner.
func (r capturingRunner) ExecStmt(st parser.Statement) (*minisql.Result, error) {
	res, err := r.sys.db.ExecStmt(st)
	if err != nil {
		return nil, err
	}
	if res.Table != "" && len(res.Changes) > 0 {
		if src, ok := r.sys.reg.ByName(res.Table); ok {
			for _, ch := range res.Changes {
				tok := datasource.Token{SourceID: src.ID}
				switch {
				case ch.Old == nil:
					tok.Op = datasource.OpInsert
					tok.New = ch.New
				case ch.New == nil:
					tok.Op = datasource.OpDelete
					tok.Old = ch.Old
				default:
					tok.Op = datasource.OpUpdate
					tok.Old, tok.New = ch.Old, ch.New
				}
				// Cascades go through admission (an overloaded source
				// pushes back on the action that feeds it) but skip the
				// closed gate: an in-flight action during Close must be
				// able to finish its writes while the pool drains.
				if err := r.sys.admit(tok); err != nil {
					return res, err
				}
			}
		}
	}
	return res, nil
}
