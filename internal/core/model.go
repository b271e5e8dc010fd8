package core

import "fmt"

// ServiceModel describes how a resource serves requests — the assumption the
// SPAA'99 paper leaves implicit (a resource serves one request per round and
// is instantly free again) lifted into an explicit, pluggable value.
//
//   - Cap is the per-resource capacity: how many requests a resource can hold
//     in service concurrently.
//   - Hold is the service time: a request served at round t occupies one
//     capacity unit of its resource for the Hold consecutive rounds
//     [t, t+Hold) — the reusable-resources family of Delong et al.
//     (arXiv 2110.07084) and Baek–Wang (arXiv 2304.03377).
//
// The legacy paper model is Cap=1, Hold=1. The zero value normalizes to it
// (see Norm), so traces built before the model existed keep their meaning.
// Deadlines keep their paper semantics under every model: a request must
// *start* service within its window; the hold may extend past the deadline.
type ServiceModel struct {
	Cap  int
	Hold int
}

// UnitModel returns the paper's implicit service model: unit capacity,
// instant release.
func UnitModel() ServiceModel { return ServiceModel{Cap: 1, Hold: 1} }

// Norm maps unset (zero or negative-free zero-value) fields to 1, so the
// zero ServiceModel means the legacy unit model.
func (m ServiceModel) Norm() ServiceModel {
	if m.Cap == 0 {
		m.Cap = 1
	}
	if m.Hold == 0 {
		m.Hold = 1
	}
	return m
}

// IsUnit reports whether m (normalized) is the legacy cap=1, hold=1 model.
func (m ServiceModel) IsUnit() bool {
	m = m.Norm()
	return m.Cap == 1 && m.Hold == 1
}

// Validate rejects non-positive capacities or hold times (after Norm's
// zero-means-unset mapping).
func (m ServiceModel) Validate() error {
	n := m.Norm()
	if n.Cap < 1 {
		return fmt.Errorf("core: service model capacity %d < 1", m.Cap)
	}
	if n.Hold < 1 {
		return fmt.Errorf("core: service model hold %d < 1", m.Hold)
	}
	return nil
}

// String renders the model in the registry's canonical parameter order.
func (m ServiceModel) String() string {
	m = m.Norm()
	return fmt.Sprintf("hold=%d,cap=%d", m.Hold, m.Cap)
}

// ModelSupporter is implemented by strategies that support non-unit service
// models. SupportsModel reports whether the strategy's routing logic is
// correct under m: scan-based strategies (first-fit, greedy, EDF) consult
// Window.Free and work under any model; the matching-based paper strategies
// plan joint schedules over future slots and support any capacity only at
// hold=1 (slots of one round are independent), rejecting longer holds.
type ModelSupporter interface {
	SupportsModel(m ServiceModel) error
}

// CheckModelSupport reports whether strategy s can run under service model m.
// Every strategy supports the unit model; a non-unit model requires s to
// implement ModelSupporter and accept m — the conservative default, so a
// strategy written against unit-capacity instant release can never silently
// compute a wrong schedule under occupancy.
func CheckModelSupport(s Strategy, m ServiceModel) error {
	if err := m.Validate(); err != nil {
		return err
	}
	if m.IsUnit() {
		return nil
	}
	ms, ok := s.(ModelSupporter)
	if !ok {
		return fmt.Errorf("core: strategy %q supports only the unit service model, not %s", s.Name(), m)
	}
	if err := ms.SupportsModel(m.Norm()); err != nil {
		return fmt.Errorf("core: strategy %q: %w", s.Name(), err)
	}
	return nil
}

// CleanCut tracks the open segment of an arrival stream and decides where it
// may be cut into independent pieces. A request arriving at round t starts a
// new segment when one is open, t is past every deadline in it, and t falls
// on an epoch boundary (a multiple of Hold), so no slot or epoch is shared
// across the cut. Segment optima then sum to the whole stream's optimum.
// Arrival rounds must be nondecreasing. The zero value is not ready; use
// NewCleanCut.
type CleanCut struct {
	hold  int
	open  bool
	maxDL int
}

// NewCleanCut returns a cut tracker under service model m with no segment
// open.
func NewCleanCut(m ServiceModel) CleanCut {
	return CleanCut{hold: m.Norm().Hold, maxDL: -1}
}

// Cuts reports whether a request arriving at round t closes the open segment.
// The caller then seals the segment and calls Reset before adding the request.
func (c *CleanCut) Cuts(t int) bool {
	return c.open && t > c.maxDL && t%c.hold == 0
}

// Add puts a request with the given deadline into the open segment, opening
// one if none is.
func (c *CleanCut) Add(deadline int) {
	c.open = true
	if deadline > c.maxDL {
		c.maxDL = deadline
	}
}

// Reset closes the open segment.
func (c *CleanCut) Reset() {
	c.open, c.maxDL = false, -1
}

// Open reports whether a segment is open.
func (c *CleanCut) Open() bool { return c.open }

// MaxDeadline returns the largest deadline in the open segment (-1 when none
// is open).
func (c *CleanCut) MaxDeadline() int { return c.maxDL }
