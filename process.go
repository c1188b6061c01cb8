package triggerman

import (
	"fmt"
	"slices"
	"time"

	"triggerman/internal/agg"
	"triggerman/internal/catalog"
	"triggerman/internal/datasource"
	"triggerman/internal/discrim"
	"triggerman/internal/exec"
	"triggerman/internal/expr"
	"triggerman/internal/minisql"
	"triggerman/internal/parser"
	"triggerman/internal/predindex"
	"triggerman/internal/taskq"
	"triggerman/internal/trace"
	"triggerman/internal/types"
)

// capture is the external entry point for a freshly captured update:
// producers (StreamSource) call it, and it admits the token under the
// close gate. Internal re-entries that must survive shutdown or bypass
// the closed gate (cascaded execSQL updates, dead-letter requeue) call
// admit directly.
func (s *System) capture(tok datasource.Token) error {
	return s.gated(func() error { return s.admit(tok) })
}

// gated runs one producer call under the close gate. A call that
// starts after Close has begun does nothing and returns errClosed; a
// call already inside finishes, with its table write and its token's
// capture, before Close goes on. So a closed system neither writes a
// row nor enqueues a token, and Close cannot fall between the two.
func (s *System) gated(f func() error) error {
	s.gate.RLock()
	defer s.gate.RUnlock()
	if s.closed {
		return errClosed
	}
	return f()
}

// admit accepts a token into this node's pipeline. Clustered
// deployments route first: this covers every local entry point —
// producers, cascaded execSQL updates, and dead-letter requeue — so a
// cross-source cascade whose target lives elsewhere ships to its owner
// instead of entering this pipeline.
func (s *System) admit(tok datasource.Token) error {
	if r := s.router(); r != nil {
		if src, ok := s.reg.ByID(tok.SourceID); ok {
			if handled, err := r.Route(src.Name, tok, ""); handled {
				return err
			}
		}
	}
	return s.apply(tok)
}

// taskPri maps a token's source class to its run-queue priority:
// interactive sources ride the high queue, batch sources the low queue
// (aged by taskq so they cannot starve).
func (s *System) taskPri(src int32) taskq.Priority {
	if s.sourceClass(src) == catalog.Batch {
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
	w := s.getWork()
	w.tok = tok
	_, err := s.queueRetry.Do(w.enqueueFn)
	seq := w.seq.Load()
	s.putWork(w)
	if err != nil {
		sp.Finish()
		return err
	}
	sp.Mark(trace.StageCapture)
	s.tracer.Attach(seq, sp)
	s.cTokensIn.Inc()
	// Either way the retry covers transient *dequeue* failures only: the
	// tokens are still queued, so pumping again finds them. A token that
	// did leave the queue is stage's, so a re-run can never strand one.
	// The key routes the task to the source's home shard: one source's
	// tokens drain from one queue (and batch together), while idle
	// drivers steal across.
	return s.schedulePump(sourceKey(tok.SourceID), s.taskPri(tok.SourceID))
}

// schedulePump runs one pump: inline when Synchronous, else as a
// process-token task with the given shard key and priority.
func (s *System) schedulePump(key int64, pri taskq.Priority) error {
	if s.pool == nil {
		_, err := s.queueRetry.Do(s.pumpInline)
		return err
	}
	return s.pool.Submit(taskq.Task{
		Kind: taskq.ProcessToken, Key: key, Pri: pri,
		Retry: &s.queueRetry, RunSlot: s.pumpTask,
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
		w := s.getWork()
		w.tok, w.part, w.slot, w.sp = tok, predindex.AllParts, slot, sp
		if s.ordered {
			s.hop(w)
		} else {
			s.stage(w)
			s.putWork(w)
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
func (s *System) hop(w *work) {
	tok := w.tok
	err := s.submit(w, taskq.Task{
		Kind: taskq.ProcessToken, Key: sourceKey(tok.SourceID), Serial: true,
		Pri: s.taskPri(tok.SourceID),
	})
	if err != nil {
		s.quarantine(catalog.DeadToken, 0, tok, err, 1)
	}
}

// submit hands w to the pool as task t: a driver calls w.run, and the
// task's end — or a refused submission, here — releases w. A traced
// token's task holds its own span reference until then (it may outlive
// the caller's), and times its run-queue wait — the scheduler half of
// the queue-wait decomposition (StageDequeue covered the token-queue
// half). The task's two functions are w's own, bound when w was made,
// so submitting allocates nothing.
func (s *System) submit(w *work, t taskq.Task) error {
	t.RunSlot, t.OnDone = w.runFn, w.doneFn
	if w.sp != nil {
		w.sp.Retain()
		w.submitAt = time.Now()
	}
	err := s.pool.Submit(t)
	if err != nil {
		w.done(err)
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
func (s *System) stage(w *work) {
	attempts, err := s.queueRetry.Do(w.routeFn)
	if err != nil {
		s.quarantine(catalog.DeadToken, 0, w.tok, err, attempts)
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
func (w *work) route() error {
	w = w.own()
	s, tok, sp := w.s, w.tok, w.sp
	whole := w.part == predindex.AllParts
	s.mu.RLock()
	stateful := whole && s.sources[tok.SourceID].stateful > 0
	s.mu.RUnlock()
	fires := !whole || !s.fanOut
	w.probe.Reset()
	nOld := 0
	if stateful || fires {
		var begin time.Time
		if sp != nil {
			begin = time.Now()
		}
		ctx := predindex.MatchCtx{Part: w.part, Slot: w.slot}
		var err error
		if stateful && tok.Op == datasource.OpUpdate && tok.Old != nil {
			err = s.pidx.Match(&w.probe, image(tok, true), ctx)
			nOld = len(w.probe.Matches)
		}
		if err == nil {
			err = s.pidx.Match(&w.probe, tok, ctx)
		}
		if sp != nil {
			sp.Observe(trace.StageMatch, time.Since(begin))
		}
		if err != nil {
			return err
		}
	}
	ms := w.probe.Matches
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
			w.maintain(gone, true)
			w.maintain(come, false)
			w.applyAggregates(gone, come)
		}
		if sp != nil {
			sp.Observe(trace.StagePropagate, time.Since(begin))
		}
		if s.fanOut {
			return w.fanOutParts()
		}
	}
	for i := nOld; i < len(ms); i++ {
		// Gator and aggregate triggers fired during their upkeep.
		if m := &ms[i]; m.Gator || m.Aggregate || !m.FireMask.Matches(tok) || !s.cat.IsFireable(m.TriggerID) {
			continue
		}
		s.cTokensMatch.Inc()
		// A transient pin or enumerate fault is retried per firing; an
		// exhausted or permanent one quarantines only this trigger's
		// firing — the remaining matches still run.
		w.cur = i
		attempts, err := s.actionRetry.Do(w.fireFn)
		s.prof.ActionRetries(ms[i].TriggerID, attempts)
		if err != nil {
			s.quarantine(catalog.DeadAction, ms[i].TriggerID, tok, err, attempts)
		}
	}
	return nil
}

// image is one tuple image of a token as a token of its own: the old
// image as a delete, the new image as an insert.
func image(tok datasource.Token, old bool) datasource.Token {
	if old {
		return datasource.Token{SourceID: tok.SourceID, Op: datasource.OpDelete, Old: tok.Old}
	}
	return datasource.Token{SourceID: tok.SourceID, Op: datasource.OpInsert, New: tok.New}
}

// fanOutParts submits one token-conditions task per partition. A
// failed submission fails the whole token: partitions already
// submitted still fire, and stage dead-letters the token so the rest
// are not lost.
func (w *work) fanOutParts() error {
	s := w.s
	pri := s.taskPri(w.tok.SourceID)
	for p := 0; p < s.partitions; p++ {
		pw := s.getWork()
		pw.tok, pw.part, pw.sp = w.tok, p, w.sp
		if err := s.submit(pw, taskq.Task{Kind: taskq.TokenConditions, Pri: pri}); err != nil {
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
func (w *work) maintain(ms []predindex.Match, removal bool) {
	s, tok := w.s, w.tok
	for i := range ms {
		m := &ms[i]
		if !m.MultiVar {
			continue
		}
		lt, err := s.cat.PinTrigger(m.TriggerID)
		if err != nil {
			s.noteErrorAt("match", m.TriggerID, err)
			continue
		}
		switch {
		case lt.Gator != nil:
			// Retraction fires only for genuine delete tokens whose fire
			// mask accepts deletes.
			var pnode discrim.PNode
			w.lt, w.ferr = lt, nil
			if (!removal || tok.Op == datasource.OpDelete) && m.FireMask.Matches(tok) && s.cat.IsFireable(m.TriggerID) {
				pnode = w.comboFn
				s.cTokensMatch.Inc()
			}
			if err := lt.Gator.NotifyToken(int(m.NextNode), image(tok, removal), pnode); err != nil {
				s.noteErrorAt("gator", m.TriggerID, err)
			}
			if w.ferr != nil {
				s.noteErrorAt("action", m.TriggerID, w.ferr)
			}
		case lt.Network == nil: // loaded without a network: nothing to keep
		case removal:
			lt.Network.RemoveTuple(int(m.NextNode), tok.Old)
		default:
			lt.Network.AddTuple(int(m.NextNode), tok.New)
		}
		s.cat.Unpin(m.TriggerID)
	}
}

// applyAggregates feeds group-by/having triggers. An aggregate trigger
// has one tuple variable, so it appears at most once per image; an
// update pairs its two appearances, because the group the old image
// leaves and the group the new one joins must be judged together. The
// lists hold dozens of matches, so pairing is a scan.
func (w *work) applyAggregates(gone, come []predindex.Match) {
	for i := range come {
		if m := &come[i]; m.Aggregate {
			w.applyAggregate(m, hasAggregate(gone, m.TriggerID), true)
		}
	}
	for i := range gone {
		if m := &gone[i]; m.Aggregate && !hasAggregate(come, m.TriggerID) {
			w.applyAggregate(m, true, false)
		}
	}
}

// hasAggregate reports whether ms holds trigger id's aggregate ref.
func hasAggregate(ms []predindex.Match, id uint64) bool {
	for i := range ms {
		if ms[i].Aggregate && ms[i].TriggerID == id {
			return true
		}
	}
	return false
}

// applyAggregate updates one trigger's incremental aggregates with the
// token images that passed its selection; having-condition transitions
// fire the action, which reads the representative row as variable 0 and
// the aggregate values by slot. The state follows every operation, but
// only a token the trigger's on clause accepts fires it: a transition
// the on clause refuses is spent without a firing.
func (w *work) applyAggregate(m *predindex.Match, oldMatch, newMatch bool) {
	s, tok, id := w.s, w.tok, m.TriggerID
	if !s.cat.IsFireable(id) {
		// Like the paper's isEnabled semantics, disabled triggers are
		// inert: they do not maintain state either.
		return
	}
	lt, err := s.cat.PinTrigger(id)
	if err != nil {
		s.noteErrorAt("aggregate", id, err)
		return
	}
	defer s.cat.Unpin(id)
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
	if !m.FireMask.Matches(tok) {
		return
	}
	for _, f := range fires {
		s.cTokensMatch.Inc()
		w.one[0] = f.Representative
		if err := w.runCombo(lt, w.one[:], f.Aggregates, 0); err != nil {
			s.noteErrorAt("action", id, err)
		}
	}
}

// onCombo is the P-node callback (w.comboFn): it runs the pinned
// trigger's action for one satisfying combination. The first failure
// stops the enumeration and is left in w.ferr.
func (w *work) onCombo(c discrim.Combo) bool {
	w.ferr = w.runCombo(w.lt, c.Tuples, nil, c.SeedVar)
	return w.ferr == nil
}

// fire pins the trigger of the match route is at (§5.4's trigger-cache
// pin), runs join and temporal condition testing through the A-TREAT
// network when present, and executes the action for every satisfying
// combination.
func (w *work) fire() error {
	w = w.own()
	s, m := w.s, &w.probe.Matches[w.cur]
	lt, err := s.cat.PinTrigger(m.TriggerID)
	if err != nil {
		return err
	}
	defer s.cat.Unpin(m.TriggerID)

	if lt.Network == nil {
		// Single-variable trigger: the selection match is the whole
		// condition; fire directly with the effective tuple.
		w.one[0] = w.tok.Effective()
		return w.runCombo(lt, w.one[:], nil, 0)
	}
	w.lt, w.ferr = lt, nil
	if err := lt.Network.Enumerate(&w.join, int(m.NextNode), w.tok, w.comboFn); err != nil {
		return err
	}
	return w.ferr
}

// runCombo executes a trigger's action for one satisfying combination —
// with an aggregate trigger's aggregate tuple, which the firing keeps —
// inline or as a rule-action task per Options.ActionTasks. The firing
// gets a work of its own, holding its own copy of the combination. A
// task, or an attempt a retry policy abandons (see own), outlives this
// token's step, everything in w and the memories' read locks, so the
// firing then copies the combination's rows too.
func (w *work) runCombo(lt *catalog.LoadedTrigger, tuples []types.Tuple, aggs types.Tuple, seed int) error {
	s := w.s
	task := s.pool != nil && s.opts.ActionTasks
	aw := s.getWork()
	aw.tok, aw.slot, aw.sp, aw.firing = w.tok, w.slot, w.sp, true
	aw.lt, aw.id = lt, lt.Info.ID
	aw.tuples = append(aw.tuples[:0], tuples...)
	if (task || s.abandons) && len(tuples) > 1 {
		aw.ownRows(seed)
	}
	aw.olds = append(aw.olds[:0], make([]types.Tuple, len(tuples))...)
	if seed >= 0 && seed < len(aw.olds) {
		aw.olds[seed] = w.tok.Old
	}
	aw.env.Binding = exec.Binding{VarIndex: lt.VarIndex, Tuples: aw.tuples, Olds: aw.olds, Aggregates: aggs}
	if s.FireHook != nil {
		s.FireHook(lt.Info.ID, aw.tuples)
	}
	if !task {
		// Task type 4: the token's actions run inside its own task.
		aw.runAction()
		s.putWork(aw)
		return nil
	}
	// Rule action concurrency (task type 2 of §6). The action inherits
	// the *trigger's* declared class, not the source's — a batch trigger
	// on a shared source must not ride the interactive queue.
	pri := taskq.High
	if lt.Info.Class == catalog.Batch {
		pri = taskq.Low
	}
	return s.submit(aw, taskq.Task{Kind: taskq.RunAction, Pri: pri})
}

// ownRows copies the firing's tuples other than the seed's — a network
// combination's rows, which belong to alpha memories — into w.vals. A
// single-variable firing's tuple is the token's own and is not copied.
func (w *work) ownRows(seed int) {
	n := 0
	for i, tu := range w.tuples {
		if i != seed {
			n += len(tu)
		}
	}
	w.vals = slices.Grow(w.vals[:0], n)
	for i, tu := range w.tuples {
		if i != seed && tu != nil {
			k := len(w.vals)
			w.vals = append(w.vals, tu...)
			w.tuples[i] = w.vals[k:len(w.vals):len(w.vals)]
		}
	}
}

// runAction executes the firing w was filled with by runCombo.
func (w *work) runAction() {
	s := w.s
	s.cActionsRun.Inc()
	// Traced firings run through the work's own Executor copy, whose
	// Observe hook stamps event delivery, so the deliver stage lands on
	// this token's span without changing Run's signature.
	w.exe = s.exe
	if w.sp != nil {
		w.tracedExe = *s.exe
		w.tracedExe.Observe = w.observeFn
		w.exe = &w.tracedExe
	}
	// Timed unconditionally: the elapsed wall time feeds both the
	// sampled trace span and the always-on per-trigger attribution.
	begin := time.Now()
	// The action runs under the action retry policy: transient
	// faults back off and retry, panics and semantic errors fail
	// fast, and either way an undeliverable firing is quarantined in
	// the dead-letter table so the remaining combinations (and
	// triggers) keep firing.
	attempts, err := s.actionRetry.Do(w.execFn)
	elapsed := time.Since(begin)
	if w.sp != nil {
		w.sp.Observe(trace.StageAction, elapsed)
	}
	s.prof.ObserveAction(w.id, elapsed)
	s.prof.ActionRetries(w.id, attempts)
	if err != nil {
		s.quarantine(catalog.DeadAction, w.id, w.tok, err, attempts)
	}
}

// CapturingRunner wraps the database so execSQL actions generate update
// descriptors for tables registered as data sources — the cascade path.
type capturingRunner struct{ sys *System }

// ExecParams implements exec.StmtRunner.
func (r capturingRunner) ExecParams(st parser.Statement, params expr.Env) (*minisql.Result, error) {
	res, err := r.sys.db.ExecParams(st, params)
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
				// Cascades skip the closed gate: an in-flight action
				// during Close must be able to finish its writes while
				// the pool drains.
				if err := r.sys.admit(tok); err != nil {
					return res, err
				}
			}
		}
	}
	return res, nil
}
