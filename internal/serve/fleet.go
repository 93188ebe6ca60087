package serve

import (
	"errors"
	"fmt"

	"pts/internal/pvm/nettrans"
)

// NettransFleet adapts a nettrans.Master — the TCP star transport's
// listener plus worker registry — to the Fleet interface. Wire the
// scheduler's Notify into nettrans.MasterConfig.OnRegistry so joins,
// losses and lease releases pump the admission queue.
type NettransFleet struct {
	M *nettrans.Master
}

// Lease claims n idle workers, translating the transport's capacity
// sentinel into the scheduler's.
func (f NettransFleet) Lease(n int) (Lease, error) {
	l, err := f.M.Lease(n)
	if err != nil {
		if errors.Is(err, nettrans.ErrNoCapacity) {
			return nil, fmt.Errorf("%w: %v", ErrNoCapacity, err)
		}
		return nil, err
	}
	return l, nil
}

// FreeWorkers is the number of idle (lobby) workers.
func (f NettransFleet) FreeWorkers() int { return f.M.FreeWorkers() }

// TotalWorkers is the number of registered workers, idle or leased.
func (f NettransFleet) TotalWorkers() int { return f.M.TotalWorkers() }

// Nodes describes every registered worker.
func (f NettransFleet) Nodes() []NodeInfo { return f.M.Nodes() }
