// Cohort stations stand for N identical clients with one scheduled
// entity behind one association.
//
// Members share the same mode, open-port set, listen interval, and
// join instant, and one representative Station carries their protocol
// state. The cohort is an aggregate: the air and the AP see only the
// representative — one AID, one TIM/BTIM bit, one UDP Port Message
// stream — and the medium delivers each frame to it once, counted for
// every member (medium.AttachBlock). Per-member energy is the
// representative's, and cohort energy scales it by Count (see DESIGN
// §9). A population that must be exact is attached as stations.
package station

import (
	"fmt"

	"repro/internal/dot11"
	"repro/internal/energy"
	"repro/internal/medium"
	"repro/internal/sim"
)

// CohortConfig configures a cohort: the embedded Config describes the
// representative, whose address is the cohort's base address.
type CohortConfig struct {
	Config
	// Count is the number of members the cohort stands for.
	Count int
}

// CohortStation models Count identical stations as one medium node and
// one event-loop participant. Create with NewCohort, associate the
// representative via ap.AssociateAggregate, then Join with its AID.
type CohortStation struct {
	tmpl  *Station
	count int
}

// blockChannel is the channel handed to the representative: its
// Attach is a no-op, because NewCohort attaches the representative as
// the whole block.
type blockChannel struct{ medium.Channel }

func (blockChannel) Attach(dot11.MACAddr, medium.Node) {}

// NewCohort creates a cohort of cfg.Count members attached to the
// medium as one block based at cfg.Addr.
func NewCohort(eng *sim.Engine, med medium.BlockChannel, cfg CohortConfig) (*CohortStation, error) {
	if cfg.Count < 1 {
		return nil, fmt.Errorf("station: cohort count %d < 1", cfg.Count)
	}
	lo := uint64(cfg.Addr[3])<<16 | uint64(cfg.Addr[4])<<8 | uint64(cfg.Addr[5])
	if lo+uint64(cfg.Count)-1 >= dot11.MaxAddrBlock {
		return nil, fmt.Errorf("station: cohort of %d members from %v wraps the address block", cfg.Count, cfg.Addr)
	}
	c := &CohortStation{count: cfg.Count}
	c.tmpl = New(eng, blockChannel{med}, cfg.Config)
	if err := med.AttachBlock(cfg.Addr, cfg.Count, c.tmpl); err != nil {
		return nil, err
	}
	return c, nil
}

// Join records the AID the AP assigned the representative and starts
// the suspend machinery, exactly as Station.Join does.
func (c *CohortStation) Join(aid dot11.AID) error { return c.tmpl.Join(aid) }

// Template returns the Station carrying the members' shared protocol
// state — for observers and pricing; drive the cohort through
// CohortStation methods, not the template.
func (c *CohortStation) Template() *Station { return c.tmpl }

// Count returns the number of members the cohort stands for.
func (c *CohortStation) Count() int { return c.count }

// OpenPort registers a listening UDP port on every member.
func (c *CohortStation) OpenPort(p uint16) { c.tmpl.OpenPort(p) }

// Arrivals returns one member's recorded radio arrivals — the same for
// every member, so per-member energy is energy.Compute over this log
// and cohort energy is the per-member Breakdown scaled by Count.
func (c *CohortStation) Arrivals() []energy.Arrival { return c.tmpl.Arrivals() }

// MemberStats returns one member's protocol counters (the same for
// every member).
func (c *CohortStation) MemberStats() Stats { return c.tmpl.Stats() }
