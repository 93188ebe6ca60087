package main

import "testing"

// TestReferenceUnitIsFixedWork checks that the reference unit does the
// same work on every call, so its time measures the host alone: its
// checksum repeats on every copy, and a pass allocates nothing, so the
// garbage collector's state cannot reach its time.
func TestReferenceUnitIsFixedWork(t *testing.T) {
	c := newHostClock(2)
	if _, err := c.unit(); err != nil {
		t.Fatal(err)
	}
	first := c.check
	if _, err := c.unit(); err != nil {
		t.Fatal(err)
	}
	if c.check != first {
		t.Errorf("checksum moved from %v to %v", first, c.check)
	}
	g := newRefGraph()
	if allocs := testing.AllocsPerRun(5, func() { g.pass(1) }); allocs != 0 {
		t.Errorf("a reference pass allocates %v times", allocs)
	}
	c.check++
	if _, err := c.unit(); err == nil {
		t.Error("a checksum mismatch went unreported")
	}
}
