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
	// Invariant: per-daemon durability, acked ⊆ durable ⊆ published. Every
	// pair daemon d acknowledged — by client publish ack, peer push ack, or
	// completed pull — is in what a reboot of d would read: its snapshot file
	// with the append log beside it replayed, through a persister of the
	// checker's own (NewHandler and the replicator both persist through
	// OnMerge before acking). And no daemon's set exceeds the fleet-wide
	// published bound (pairs replicate between daemons, but none may appear
	// that no publish ever carried).
	published := m.published()
	for d, n := range f.nodes {
		snapFile, _, err := trapstore.NewSnapshotPersister(n.snapPath).Load()
		if err != nil {
			return violation(act, "snapshot-file-corrupt",
				fmt.Sprintf("daemon %d snapshot file is unreadable: %v", d, err), nil)
		}
		snapSet := setOf(snapFile.Pairs)
		if missing := m.ackedTo[d].minus(snapSet); len(missing) > 0 {
			return violation(act, "daemon-durability",
				fmt.Sprintf("%d pairs daemon %d acked are missing from its snapshot file and log: %v",
					len(missing), d, missing), missing)
		}
		if phantom := snapSet.minus(published); len(phantom) > 0 {
			return violation(act, "phantom-pair",
				fmt.Sprintf("daemon %d's snapshot file and log hold %d pairs no publish ever carried: %v",
					d, len(phantom), phantom), phantom)
		}

		// Invariant: a reachable daemon agrees with its own durability
		// contract. Down or partitioned daemons are checked through their
		// snapshot files only — that is all that survives them.
		if n.up && !n.partitioned {
			live, err := n.checker.Fetch()
			if err != nil {
				return violation(act, "daemon-unreachable",
					fmt.Sprintf("daemon %d is up but a pristine client cannot fetch: %v", d, err), nil)
			}
			liveSet := setOf(live.Pairs)
			if missing := m.ackedTo[d].minus(liveSet); len(missing) > 0 {
				return violation(act, "daemon-durability",
					fmt.Sprintf("%d pairs daemon %d acked are missing from its live set: %v",
						len(missing), d, missing), missing)
			}
			if phantom := liveSet.minus(published); len(phantom) > 0 {
				return violation(act, "phantom-pair",
					fmt.Sprintf("daemon %d's live set holds %d pairs no publish ever carried: %v",
						d, len(phantom), phantom), phantom)
			}
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
