package catalog

import (
	"sort"

	"triggerman/internal/types"
)

// Registration describes one predicate-index registration of a trigger:
// which expression signature the trigger's predicate instance lives in
// and with which constants.
type Registration struct {
	SigID  uint64        `json:"sig_id"`
	Source int32         `json:"source_id"`
	Expr   string        `json:"expr"`
	ExprID uint64        `json:"expr_id"`
	Consts []types.Value `json:"consts,omitempty"`
}

// TriggerName resolves a trigger ID to its name.
func (c *Catalog) TriggerName(id uint64) (string, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	t, ok := c.triggers[id]
	if !ok {
		return "", false
	}
	return t.Name, true
}

// TriggerText returns the stored create-trigger statement.
func (c *Catalog) TriggerText(id uint64) (string, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	t, ok := c.triggers[id]
	if !ok {
		return "", false
	}
	return t.Text, true
}

// TriggerRegistrations lists the predicate-index registrations of one
// trigger, sorted by signature ID.
func (c *Catalog) TriggerRegistrations(id uint64) []Registration {
	c.mu.RLock()
	defer c.mu.RUnlock()
	t, ok := c.triggers[id]
	if !ok {
		return nil
	}
	out := make([]Registration, 0, len(t.regs))
	for _, r := range t.regs {
		reg := Registration{
			ExprID: r.exprID,
			Consts: append([]types.Value(nil), r.consts...),
		}
		if r.entry != nil {
			reg.SigID = r.entry.ID
			reg.Source = r.entry.Source
			reg.Expr = r.entry.Sig.Canonical()
		}
		out = append(out, reg)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].SigID != out[j].SigID {
			return out[i].SigID < out[j].SigID
		}
		return out[i].ExprID < out[j].ExprID
	})
	return out
}

// NetworkShape summarizes the resident discrimination-network state of
// a trigger: node counts feed the /triggerz and explain surfaces so a
// slow trigger's join-state footprint is visible without a debugger.
type NetworkShape struct {
	// Kind is "atreat", "gator", or "" for single-variable triggers.
	Kind string `json:"kind,omitempty"`
	// Vars counts tuple variables (alpha memories).
	Vars int `json:"vars,omitempty"`
	// Betas counts Gator beta nodes (0 for flat A-TREAT).
	Betas int `json:"betas,omitempty"`
	// AlphaTuples sums resident tuples across variable memories.
	AlphaTuples int `json:"alpha_tuples,omitempty"`
	// BetaTuples sums resident partial joins across beta memories.
	BetaTuples int `json:"beta_tuples,omitempty"`
}

// Nodes reports the total discrimination-network node count.
func (s NetworkShape) Nodes() int { return s.Vars + s.Betas }

// NetworkShape reports the network shape for a trigger; ok is false for
// unknown IDs.
func (c *Catalog) NetworkShape(id uint64) (NetworkShape, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	t, ok := c.triggers[id]
	if !ok {
		return NetworkShape{}, false
	}
	if g := t.gator; g != nil {
		s := NetworkShape{Kind: "gator", Vars: len(g.Vars)}
		for i := range g.Vars {
			s.AlphaTuples += g.MemorySize(i)
		}
		betas := g.BetaSizes()
		s.Betas = len(betas)
		for _, b := range betas {
			s.BetaTuples += b
		}
		return s, true
	}
	if n := t.network; n != nil {
		s := NetworkShape{Kind: "atreat", Vars: len(n.Vars)}
		for i := range n.Vars {
			s.AlphaTuples += n.MemorySize(i)
		}
		return s, true
	}
	return NetworkShape{}, true
}

// TriggerIDs returns every trigger ID, sorted (introspection surfaces).
func (c *Catalog) TriggerIDs() []uint64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]uint64, 0, len(c.triggers))
	for id := range c.triggers {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
