package catalog

// The dead-letter queue: tokens and rule-action firings that exhausted
// their retries (or failed permanently — a panicking action, a semantic
// error) are quarantined in a catalog-backed dead_letter table instead
// of being silently dropped. The table persists across restarts like
// the other §5.1 catalogs, so an operator can inspect, requeue, or
// purge stranded work after a crash.

import (
	"encoding/hex"
	"fmt"

	"triggerman/internal/datasource"
	"triggerman/internal/storage"
	"triggerman/internal/types"
)

// Dead-letter entry kinds.
const (
	// DeadToken is a whole update descriptor whose processing failed.
	DeadToken = "token"
	// DeadAction is one trigger firing whose action failed.
	DeadAction = "action"
	// DeadForward is a token that belonged on another cluster node but
	// could not be forwarded there within the retry budget. It carries
	// deferral, not failure: requeue it once the owner node returns and
	// it ships again.
	DeadForward = "forward"
)

// DeadLetter is one quarantined work item.
type DeadLetter struct {
	ID uint64
	// Kind is DeadToken or DeadAction.
	Kind string
	// TriggerID identifies the failing trigger for DeadAction entries
	// (0 for DeadToken entries).
	TriggerID uint64
	// Token is the original update descriptor.
	Token datasource.Token
	// Error is the final error message.
	Error string
	// Attempts is how many times the work was tried before quarantine.
	Attempts int
	// Created is the quarantine timestamp (RFC3339).
	Created string

	rid storage.RID
}

// String renders the entry for the console.
func (d DeadLetter) String() string {
	return fmt.Sprintf("#%d %s trigger=%d attempts=%d token=%s created=%s error=%s",
		d.ID, d.Kind, d.TriggerID, d.Attempts, d.Token, d.Created, d.Error)
}

func (c *Catalog) ensureDeadLetterTable() error {
	if t, err := c.db.Table("dead_letter"); err == nil {
		c.dlTab = t
	} else {
		t, err := c.db.CreateTable("dead_letter", types.MustSchema(
			types.Column{Name: "dlid", Kind: types.KindInt},
			types.Column{Name: "kind", Kind: types.KindVarchar},
			types.Column{Name: "triggerid", Kind: types.KindInt},
			types.Column{Name: "token", Kind: types.KindVarchar},
			types.Column{Name: "error", Kind: types.KindVarchar},
			types.Column{Name: "attempts", Kind: types.KindInt},
			types.Column{Name: "created", Kind: types.KindVarchar},
		))
		if err != nil {
			return err
		}
		c.dlTab = t
	}
	// Entries persist across restarts; continue the ID sequence past the
	// surviving rows.
	return c.dlTab.Scan(func(_ storage.RID, row types.Tuple) bool {
		if id := uint64(row[0].Int()); id > c.nextDLID {
			c.nextDLID = id
		}
		return true
	})
}

func decodeDeadLetterRow(rid storage.RID, row types.Tuple) (DeadLetter, error) {
	if len(row) != 7 {
		return DeadLetter{}, fmt.Errorf("catalog: bad dead_letter row arity %d", len(row))
	}
	d := DeadLetter{
		ID:        uint64(row[0].Int()),
		Kind:      row[1].Str(),
		TriggerID: uint64(row[2].Int()),
		Error:     row[4].Str(),
		Attempts:  int(row[5].Int()),
		Created:   row[6].Str(),
		rid:       rid,
	}
	raw, err := hex.DecodeString(row[3].Str())
	if err != nil {
		return DeadLetter{}, fmt.Errorf("catalog: dead_letter %d token hex: %w", d.ID, err)
	}
	d.Token, err = datasource.DecodeToken(raw)
	if err != nil {
		return DeadLetter{}, fmt.Errorf("catalog: dead_letter %d token: %w", d.ID, err)
	}
	return d, nil
}

// AddDeadLetter quarantines a failed work item and returns its ID.
func (c *Catalog) AddDeadLetter(kind string, triggerID uint64, tok datasource.Token, errMsg string, attempts int) (uint64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.nextDLID++
	id := c.nextDLID
	_, err := c.dlTab.Insert(types.Tuple{
		types.NewInt(int64(id)),
		types.NewString(kind),
		types.NewInt(int64(triggerID)),
		types.NewString(hex.EncodeToString(tok.Encode())),
		types.NewString(errMsg),
		types.NewInt(int64(attempts)),
		types.NewString(c.now()),
	})
	if err != nil {
		// Roll the sequence back so a retried insert reuses the ID.
		c.nextDLID--
		return 0, err
	}
	return id, nil
}

// DeadLetters returns every quarantined entry in ID order of storage.
func (c *Catalog) DeadLetters() ([]DeadLetter, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	var out []DeadLetter
	var derr error
	err := c.dlTab.Scan(func(rid storage.RID, row types.Tuple) bool {
		d, e := decodeDeadLetterRow(rid, row)
		if e != nil {
			derr = e
			return false
		}
		out = append(out, d)
		return true
	})
	if err != nil {
		return nil, err
	}
	return out, derr
}

// DeadLetterCount reports the number of quarantined entries.
func (c *Catalog) DeadLetterCount() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.dlTab.Count()
}

// TakeDeadLetter removes entry id and returns it (the requeue path:
// the caller re-injects the token and the entry must not double-fire).
func (c *Catalog) TakeDeadLetter(id uint64) (DeadLetter, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var found *DeadLetter
	var derr error
	err := c.dlTab.Scan(func(rid storage.RID, row types.Tuple) bool {
		if uint64(row[0].Int()) != id {
			return true
		}
		d, e := decodeDeadLetterRow(rid, row)
		if e != nil {
			derr = e
		} else {
			found = &d
		}
		return false
	})
	if err != nil {
		return DeadLetter{}, err
	}
	if derr != nil {
		return DeadLetter{}, derr
	}
	if found == nil {
		return DeadLetter{}, fmt.Errorf("catalog: no dead letter %d", id)
	}
	if err := c.dlTab.Delete(found.rid); err != nil {
		return DeadLetter{}, err
	}
	return *found, nil
}

// PurgeDeadLetters removes every entry and reports how many.
func (c *Catalog) PurgeDeadLetters() (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var rids []storage.RID
	if err := c.dlTab.Scan(func(rid storage.RID, _ types.Tuple) bool {
		rids = append(rids, rid)
		return true
	}); err != nil {
		return 0, err
	}
	for i, rid := range rids {
		if err := c.dlTab.Delete(rid); err != nil {
			return i, err
		}
	}
	return len(rids), nil
}
