package main

import "testing"

// TestOnlineBeatsStaticPlacement pins the example's conclusion on the specs
// it prints: re-placing hubs every second beats placing them once.
func TestOnlineBeatsStaticPlacement(t *testing.T) {
	static, err := churnSpec(0).Run()
	if err != nil {
		t.Fatal(err)
	}
	online, err := churnSpec(1).Run()
	if err != nil {
		t.Fatal(err)
	}
	if online.TSR <= static.TSR {
		t.Fatalf("online TSR %.4f does not beat static %.4f", online.TSR, static.TSR)
	}
}
