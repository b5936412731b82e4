// Package modeledcost is a dibella-lint test fixture: transport calls
// with and without a machine.Model pricing call in reach. Expected
// diagnostics are encoded in the // want comments (see lint_test.go).
package modeledcost

import (
	"dibella/internal/machine"
	"dibella/internal/spmd"
)

// BadUnpriced exchanges bytes with no machine.Model pricing in reach:
// the virtual_seconds series would undercount this mechanism.
func BadUnpriced(tr spmd.Transport, send [][]byte) [][]byte {
	pe, err := tr.IAlltoallv(send, 0, 0) // want modeledcost:"nothing is modeled as free"
	if err != nil {
		panic(err)
	}
	recv, _, _, err := pe.Wait() // want modeledcost:"nothing is modeled as free"
	if err != nil {
		panic(err)
	}
	return recv
}

// BadUnpricedWait completes a posted exchange without pricing it.
func BadUnpricedWait(pe spmd.PendingExchange) error {
	_, _, _, err := pe.Wait() // want modeledcost:"PendingExchange.Wait"
	return err
}

// GoodPriced prices the exchange directly.
func GoodPriced(m *machine.Model, tr spmd.Transport, send [][]byte, maxBytes float64) ([][]byte, error) {
	cost := m.AlltoallvTime(0, maxBytes)
	pe, err := tr.IAlltoallv(send, cost, maxBytes)
	if err != nil {
		return nil, err
	}
	recv, _, _, err := pe.Wait()
	return recv, err
}

// GoodPricedViaHelper prices through a same-package helper: the pricing
// closure is computed to a fixpoint, so wrapper layers count.
func GoodPricedViaHelper(m *machine.Model, pe spmd.PendingExchange) error {
	advance(m)
	_, _, _, err := pe.Wait()
	return err
}

func advance(m *machine.Model) float64 { return m.IPostTime() }

// SuppressedTransfer documents why this post is free (the caller waits
// and prices); the diagnostic is emitted but suppressed.
func SuppressedTransfer(tr spmd.Transport, send [][]byte) spmd.PendingExchange {
	//lint:ignore modeledcost fixture exercising the suppression path
	pe, err := tr.IAlltoallv(send, 0, 0) // wantsup modeledcost:"Transport.IAlltoallv"
	if err != nil {
		panic(err)
	}
	return pe
}
