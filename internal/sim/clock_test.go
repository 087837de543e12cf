package sim

import (
	"testing"
	"time"
)

func TestClockAdvance(t *testing.T) {
	var c Clock
	if c.Now() != 0 {
		t.Fatal("new clock should start at zero")
	}
	c.Advance(3 * time.Second)
	if c.Now() != 3*time.Second {
		t.Fatalf("now = %v, want 3s", c.Now())
	}
	c.Advance(-time.Second) // ignored
	if c.Now() != 3*time.Second {
		t.Fatal("negative advance must be ignored")
	}
}

func TestClockAdvanceTo(t *testing.T) {
	var c Clock
	c.AdvanceTo(5 * time.Second)
	c.AdvanceTo(2 * time.Second) // in the past: no-op
	if c.Now() != 5*time.Second {
		t.Fatalf("now = %v, want 5s", c.Now())
	}
}
