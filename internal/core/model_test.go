package core

import "testing"

// TestServiceModelNormValidateString pins the zero-value contract: an unset
// model means the paper's unit model, negatives are rejected rather than
// silently normalized, and String renders the registry's canonical parameter
// order.
func TestServiceModelNormValidateString(t *testing.T) {
	var zero ServiceModel
	if !zero.IsUnit() {
		t.Error("zero ServiceModel must be the unit model")
	}
	if got := zero.Norm(); got != UnitModel() {
		t.Errorf("zero.Norm() = %+v, want %+v", got, UnitModel())
	}
	if err := zero.Validate(); err != nil {
		t.Errorf("zero model must validate: %v", err)
	}
	if got := (ServiceModel{Hold: 4, Cap: 2}).String(); got != "hold=4,cap=2" {
		t.Errorf("String() = %q, want %q", got, "hold=4,cap=2")
	}
	if got := zero.String(); got != "hold=1,cap=1" {
		t.Errorf("zero String() = %q, want %q", got, "hold=1,cap=1")
	}
	if (ServiceModel{Hold: 2, Cap: 1}).IsUnit() {
		t.Error("hold=2 must not be unit")
	}
	if (ServiceModel{Hold: 1, Cap: 2}).IsUnit() {
		t.Error("cap=2 must not be unit")
	}
	for _, bad := range []ServiceModel{{Hold: -1}, {Cap: -2}, {Hold: -1, Cap: -1}} {
		if err := bad.Validate(); err == nil {
			t.Errorf("Validate(%+v) must reject negatives", bad)
		}
	}
	// Norm passes negatives through so Validate can see them — only exact
	// zero means "unset".
	if got := (ServiceModel{Hold: -3}).Norm().Hold; got != -3 {
		t.Errorf("Norm must not launder a negative hold: got %d", got)
	}
}

// TestWindowModelOccupancy drives the occupancy-tracking window directly: a
// service started at round r occupies one capacity unit of its resource for
// the full span [r, r+Hold), Free consults the whole span, and Unassign
// releases every round of it.
func TestWindowModelOccupancy(t *testing.T) {
	m := ServiceModel{Hold: 2, Cap: 2}
	w := NewWindowModel(1, 4, m)
	r1 := &Request{ID: 1, Arrive: 0, Alts: []int{0}, D: 4}
	r2 := &Request{ID: 2, Arrive: 0, Alts: []int{0}, D: 4}
	r3 := &Request{ID: 3, Arrive: 0, Alts: []int{0}, D: 4}

	w.Assign(r1, 0, 0)
	for round, want := range map[int]int{0: 1, 1: 1, 2: 0} {
		if got := w.OccupancyAt(0, round); got != want {
			t.Fatalf("after one assign: OccupancyAt(0,%d) = %d, want %d", round, got, want)
		}
	}
	if !w.Free(0, 0) {
		t.Fatal("cap=2: one assignment must leave round 0 free")
	}

	w.Assign(r2, 0, 0)
	if got := w.OccupancyAt(0, 1); got != 2 {
		t.Fatalf("two holds spanning round 1: occupancy %d, want 2", got)
	}
	// Both capacity units are consumed across [0,2); a service started at
	// round 1 would overlap them, so rounds 0 and 1 are full but round 2 is
	// free.
	if w.Free(0, 0) || w.Free(0, 1) {
		t.Fatal("rounds 0 and 1 must be full at cap=2 with two hold=2 services")
	}
	if !w.Free(0, 2) {
		t.Fatal("round 2 must be free: both holds end before it")
	}
	if got := w.AssignedCount(0, 0); got != 2 {
		t.Fatalf("AssignedCount(0,0) = %d, want 2", got)
	}

	w.Unassign(r2)
	if !w.Free(0, 1) {
		t.Fatal("after unassign, round 1 must have a free capacity unit again")
	}
	w.Assign(r3, 0, 1)
	for round, want := range map[int]int{0: 1, 1: 2, 2: 1, 3: 0} {
		if got := w.OccupancyAt(0, round); got != want {
			t.Fatalf("staggered holds: OccupancyAt(0,%d) = %d, want %d", round, got, want)
		}
	}
}

// TestCleanCut pins the one clean-cut rule: a cut needs an open segment, an
// arrival past every deadline in it and, under hold > 1, an epoch boundary.
func TestCleanCut(t *testing.T) {
	c := NewCleanCut(ServiceModel{Hold: 4, Cap: 1})
	if c.Open() || c.Cuts(100) || c.MaxDeadline() != -1 {
		t.Fatal("a fresh tracker has an open segment")
	}
	c.Add(5)
	c.Add(3)
	if !c.Open() || c.MaxDeadline() != 5 {
		t.Fatalf("open %v max deadline %d, want true and 5", c.Open(), c.MaxDeadline())
	}
	for tt, want := range map[int]bool{4: false, 5: false, 6: false, 7: false, 8: true, 12: true} {
		if got := c.Cuts(tt); got != want {
			t.Fatalf("Cuts(%d) = %v at max deadline 5, hold 4; want %v", tt, got, want)
		}
	}
	c.Reset()
	if c.Open() || c.Cuts(8) || c.MaxDeadline() != -1 {
		t.Fatal("Reset left a segment open")
	}
	unit := NewCleanCut(ServiceModel{})
	unit.Add(5)
	if !unit.Cuts(6) || unit.Cuts(5) {
		t.Fatal("the unit model cuts at every round past the last deadline")
	}
}
