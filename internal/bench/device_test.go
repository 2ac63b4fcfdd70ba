package bench

import (
	"strings"
	"testing"
	"time"

	"tpccmodel/internal/engine/storage"
)

func TestDeviceRefusesSubFloorServiceTime(t *testing.T) {
	for _, c := range []time.Duration{50 * time.Microsecond, 999 * time.Microsecond} {
		if _, err := NewDevice(storage.NewMemDisk(), c, 0); err == nil || !strings.Contains(err.Error(), "sleep floor") {
			t.Errorf("page cost %v: got %v, want an error naming the sleep floor", c, err)
		}
		if _, err := NewDevice(storage.NewMemDisk(), 0, c); err == nil || !strings.Contains(err.Error(), "sleep floor") {
			t.Errorf("force cost %v: got %v, want an error naming the sleep floor", c, err)
		}
	}
	if _, err := NewDevice(storage.NewMemDisk(), 0, 0); err != nil {
		t.Errorf("a free device was refused: %v", err)
	}
}

func TestDeviceServiceTime(t *testing.T) {
	const nominal = time.Millisecond
	dev, err := NewDevice(storage.NewMemDisk(), nominal, nominal)
	if err != nil {
		t.Fatal(err)
	}
	id := dev.Allocate(64)
	buf := make([]byte, 64)
	ops := map[string]func() error{
		"read":  func() error { return dev.Read(id, storage.AreaData, buf) },
		"write": func() error { return dev.Write(id, storage.AreaData, buf) },
		"force": func() error { return dev.BeforeForce(1) },
	}
	timeOp := func(op func() error) time.Duration {
		const n = 50
		t0 := time.Now()
		for i := 0; i < n; i++ {
			if err := op(); err != nil {
				t.Fatal(err)
			}
		}
		return time.Since(t0) / n
	}
	for name, op := range ops {
		if got := timeOp(op); got > nominal/20 {
			t.Errorf("%s before SetCharging(true) took %v: set-up must not be charged device time", name, got)
		}
	}
	dev.SetCharging(true)
	for name, op := range ops {
		if got := timeOp(op); got < nominal || got > nominal*5/4 {
			t.Errorf("%s takes %v, want within 25%% above the nominal %v", name, got, nominal)
		}
	}
	// The journal mirror write is sequential and not charged.
	if got := timeOp(func() error { return dev.Write(id, storage.AreaJournal, buf) }); got > nominal/20 {
		t.Errorf("journal write took %v, want it free", got)
	}
}
