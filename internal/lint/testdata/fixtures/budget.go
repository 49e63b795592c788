// Fixture for the budget analyzer, type-checked as
// repro/internal/stream. Local stubs carry the repo's idiom names the
// analyzer anchors on.
package stream

import "errors"

type Accountant struct{}

type Record struct{}

func (a *Accountant) SpendN(user string, eps float64, n int) error { return nil }
func (a *Accountant) Charge(r *Record, user string, eps float64, n int) error {
	return nil
}
func (r *Record) Force(eps float64, n int)  {}
func (r *Record) Refund(eps float64, n int) {}

type shard struct{ n float64 }

func (sh *shard) addLocked(idx []int, vals []float64) { sh.n++ }

type Store struct{}

func (st *Store) AppendIngest(tenant, user string) (uint64, error) { return 0, nil }

var errDown = errors.New("down")

// mutateWithoutCharge touches the histogram before any charge.
func mutateWithoutCharge(sh *shard, idx []int, vals []float64) {
	sh.addLocked(idx, vals) // want budget "without a preceding Accountant charge"
}

// chargeNoRefund appends after a charge but can never roll it back.
func chargeNoRefund(a *Accountant, st *Store, sh *shard) error { // want budget "never refunds"
	if err := a.SpendN("u", 1, 1); err != nil {
		return err
	}
	if _, err := st.AppendIngest("t", "u"); err != nil { // want budget "without refunding"
		return errDown
	}
	sh.addLocked(nil, nil)
	return nil
}

// skipsRefundOnError has a refund elsewhere but not in the error branch.
func skipsRefundOnError(a *Accountant, r *Record, st *Store, sh *shard, undo bool) error {
	if err := a.SpendN("u", 1, 1); err != nil {
		return err
	}
	if undo {
		r.Refund(1, 1)
	}
	if _, err := st.AppendIngest("t", "u"); err != nil { // want budget "without refunding"
		return errDown
	}
	sh.addLocked(nil, nil)
	return nil
}

// chargeThenRefund is the contract: the charge goes through the user's
// table record, and a failed append rolls it back through the same handle.
func chargeThenRefund(a *Accountant, r *Record, st *Store, sh *shard) error {
	if err := a.Charge(r, "u", 1, 1); err != nil {
		return err
	}
	if _, err := st.AppendIngest("t", "u"); err != nil {
		r.Refund(1, 1)
		return errDown
	}
	sh.addLocked(nil, nil)
	return nil
}

// handleWithoutCharge holds a record handle but never charges through it:
// having looked the user up pays for nothing.
func handleWithoutCharge(r *Record, sh *shard) {
	r.Refund(1, 1)
	sh.addLocked(nil, nil) // want budget "without a preceding Accountant charge"
}

// replayForced is the recovery path: Force dominates the mutation and
// there is no store append to refund.
func replayForced(r *Record, sh *shard) {
	r.Force(1, 1)
	sh.addLocked(nil, nil)
}
