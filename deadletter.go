package triggerman

import (
	"fmt"
	"strconv"
	"strings"

	"triggerman/internal/catalog"
	"triggerman/internal/datasource"
)

// DeadLetters returns the quarantined tokens and firings: work that
// exhausted its retries or failed permanently (a panicking action, a
// semantic error) and was parked in the catalog-backed dead_letter
// table instead of being dropped.
func (s *System) DeadLetters() ([]catalog.DeadLetter, error) {
	return s.cat.DeadLetters()
}

// DeadLetterCount reports the number of quarantined entries.
func (s *System) DeadLetterCount() int { return s.cat.DeadLetterCount() }

// RequeueDeadLetter removes entry id from the dead-letter table and
// re-injects its update descriptor through the normal token pipeline.
// Requeueing a DeadAction entry replays the whole token, so every
// matching trigger fires again — delivery is at-least-once. If
// re-injection fails the entry is restored, so the work is never lost
// in between. The kind is a free label, so an entry of a kind nothing
// writes any more (such as "shed") still requeues.
func (s *System) RequeueDeadLetter(id uint64) error {
	return s.gated(func() error {
		d, err := s.cat.TakeDeadLetter(id)
		if err != nil {
			return err
		}
		tok := d.Token
		tok.Seq = 0 // the queue assigns a fresh sequence number
		// Requeue goes through admit (not raw apply), so a clustered
		// deployment ships the token to its owner.
		if err := s.admit(tok); err != nil {
			if _, aerr := s.cat.AddDeadLetter(d.Kind, d.TriggerID, d.Token, d.Error, d.Attempts); aerr != nil {
				return fmt.Errorf("triggerman: requeue %d failed (%v) and restore failed: %w", id, err, aerr)
			}
			return err
		}
		return nil
	})
}

// PurgeDeadLetters drops every quarantined entry and reports how many.
func (s *System) PurgeDeadLetters() (int, error) { return s.cat.PurgeDeadLetters() }

// quarantine parks failed work in the dead-letter table. The write
// itself runs under a generous retry policy (it must survive the same
// disk faults that caused the failure); if even that exhausts, the loss
// is recorded in the error ring — the one case where a token can
// genuinely be dropped, and it is never silent.
func (s *System) quarantine(kind string, triggerID uint64, tok datasource.Token, cause error, attempts int) {
	s.ring.add(kind, triggerID, cause)
	s.prof.ActionFailure(triggerID)
	s.elog.Warn("deadletter.quarantine",
		"kind", kind, "trigger_id", triggerID, "attempts", attempts, "cause", cause.Error())
	_, err := s.dlRetry.Do(func() error {
		_, e := s.cat.AddDeadLetter(kind, triggerID, tok, cause.Error(), attempts)
		return e
	})
	if err != nil {
		s.ring.add("deadletter", triggerID, fmt.Errorf("quarantine of %s failed, work lost: %w", tok, err))
		return
	}
	s.cDeadLettered.Inc()
}

// QuarantineToken parks a whole token in the dead-letter table under
// the given kind. internal/cluster uses it with catalog.DeadForward
// for tokens whose owner node is unreachable — accounted and
// requeueable, never silently lost.
func (s *System) QuarantineToken(kind string, tok datasource.Token, cause error, attempts int) {
	s.quarantine(kind, 0, tok, cause, attempts)
}

// deadLetterCommand implements the console's deadletter command:
//
//	deadletter [list]        list quarantined entries
//	deadletter requeue <id>  re-inject one entry's token
//	deadletter purge         drop every entry
func (s *System) deadLetterCommand(args string) (string, error) {
	fields := strings.Fields(args)
	verb := "list"
	if len(fields) > 0 {
		verb = strings.ToLower(fields[0])
	}
	switch verb {
	case "list":
		all, err := s.DeadLetters()
		if err != nil {
			return "", err
		}
		if len(all) == 0 {
			return "dead-letter queue is empty", nil
		}
		lines := make([]string, 0, len(all)+1)
		lines = append(lines, fmt.Sprintf("%d dead-lettered item(s):", len(all)))
		for _, d := range all {
			lines = append(lines, "  "+d.String())
		}
		return strings.Join(lines, "\n"), nil
	case "requeue":
		if len(fields) != 2 {
			return "", fmt.Errorf("usage: deadletter requeue <id>")
		}
		id, err := strconv.ParseUint(fields[1], 10, 64)
		if err != nil {
			return "", fmt.Errorf("deadletter requeue: bad id %q", fields[1])
		}
		if err := s.RequeueDeadLetter(id); err != nil {
			return "", err
		}
		return fmt.Sprintf("dead letter %d requeued", id), nil
	case "purge":
		n, err := s.PurgeDeadLetters()
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("%d dead letter(s) purged", n), nil
	default:
		return "", fmt.Errorf("deadletter: unknown subcommand %q (want list, requeue <id>, purge)", verb)
	}
}
