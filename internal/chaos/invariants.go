package chaos

import (
	"errors"
	"fmt"

	"repro/internal/trapfile"
	"repro/internal/trapstore"
)

// checkInvariants verifies every fleet-state invariant against the model
// after action act. It reads only durable state (files) and the daemon's
// public API — never the implementation's internals — so a passing check
// means the *contracts* held, whatever the code did.
func (f *fleet) checkInvariants(act int, m *model) *Violation {
	// Invariant: daemon durability, acked ⊆ durable ⊆ published. Every pair
	// the daemon acknowledged is in what a reboot of it would read: its
	// snapshot file with the append log beside it replayed, through a
	// persister of the checker's own (NewHandler persists through OnMerge
	// before acking). And its set holds no pair no publish ever carried.
	published := m.published()
	snapFile, _, err := trapstore.NewSnapshotPersister(f.snapPath).Load()
	if err != nil {
		return violation(act, "snapshot-file-corrupt",
			fmt.Sprintf("the daemon's snapshot file is unreadable: %v", err), nil)
	}
	snapSet := setOf(snapFile.Pairs)
	if missing := m.acked.minus(snapSet); len(missing) > 0 {
		return violation(act, "daemon-durability",
			fmt.Sprintf("%d pairs the daemon acked are missing from its snapshot file and log: %v",
				len(missing), missing), missing)
	}
	if phantom := snapSet.minus(published); len(phantom) > 0 {
		return violation(act, "phantom-pair",
			fmt.Sprintf("the daemon's snapshot file and log hold %d pairs no publish ever carried: %v",
				len(phantom), phantom), phantom)
	}

	// Invariant: a live daemon agrees with its own durability contract. A
	// down daemon is checked through its files only — that is all that
	// survives it.
	if f.gate.up() {
		live, err := f.checker.Fetch()
		if err != nil {
			return violation(act, "daemon-unreachable",
				fmt.Sprintf("the daemon is up but a pristine client cannot fetch: %v", err), nil)
		}
		liveSet := setOf(live.Pairs)
		if missing := m.acked.minus(liveSet); len(missing) > 0 {
			return violation(act, "daemon-durability",
				fmt.Sprintf("%d pairs the daemon acked are missing from its live set: %v",
					len(missing), missing), missing)
		}
		if phantom := liveSet.minus(published); len(phantom) > 0 {
			return violation(act, "phantom-pair",
				fmt.Sprintf("the daemon's live set holds %d pairs no publish ever carried: %v",
					len(phantom), phantom), phantom)
		}
	}

	// Invariant: the Fallback contract, per shard. A corrupted file must
	// stay detectably corrupt until healed; a healthy file holds exactly
	// the modeled set — every published pair durable, nothing extra.
	for i, path := range f.locals {
		if m.corrupt[i] {
			if _, err := trapfile.LoadFile(path); !errors.Is(err, trapfile.ErrCorrupt) {
				return violation(act, "corruption-undetected",
					fmt.Sprintf("shard %d file was overwritten with garbage but loads as %v, want ErrCorrupt",
						i, err), nil)
			}
			continue
		}
		file, err := trapfile.LoadFile(path)
		if err != nil {
			return violation(act, "shard-file-load",
				fmt.Sprintf("shard %d file unreadable: %v", i, err), nil)
		}
		got := setOf(file.Pairs)
		want := m.local[i]
		if want == nil {
			want = pairSet{}
		}
		if missing := want.minus(got); len(missing) > 0 {
			return violation(act, "shard-file-pairs",
				fmt.Sprintf("shard %d local file lost %d pairs its publishes were confirmed for: %v",
					i, len(missing), missing), missing)
		}
		if extra := got.minus(want); len(extra) > 0 {
			return violation(act, "shard-file-pairs",
				fmt.Sprintf("shard %d local file holds %d pairs no publish or pull put there: %v",
					i, len(extra), extra), extra)
		}
	}
	return nil
}
