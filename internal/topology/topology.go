// Package topology models the two-level datacenter network Corral assumes:
// full bisection bandwidth inside each rack, and oversubscribed links from
// the racks to a non-blocking core (SIGCOMM'15 §1, §3.3).
//
// Machines and racks are identified by dense integer indices. Every machine
// has an uplink (egress) and a downlink (ingress) of NIC capacity; every
// rack has an uplink and downlink to the core of capacity
// machinesPerRack × NIC / oversubscription. Links are registered in a flat
// table so the flow simulator can treat them uniformly.
//
// Determinism obligations: construction is a pure function of the cluster
// shape; machine, rack and link ids are dense and assigned in a fixed
// order, so id-ordered iteration downstream is reproducible.
package topology

import (
	"fmt"
)

// Config describes a cluster. All capacities are in bytes per second.
type Config struct {
	Racks            int     // number of racks
	MachinesPerRack  int     // machines in each rack
	SlotsPerMachine  int     // compute slots per machine
	NICBandwidth     float64 // per-machine NIC capacity, bytes/sec
	Oversubscription float64 // rack-to-core oversubscription ratio V (>= 1)

	// BackgroundPerRack is the portion of each rack uplink AND downlink
	// consumed by background transfers (bytes/sec). The paper emulates
	// background traffic of up to 50% of core bandwidth (§6.1) and sweeps
	// it in Fig 12. Modeled as a capacity reduction.
	BackgroundPerRack float64

	// RemoteStorageBandwidth, when positive, adds a storage-cluster
	// interconnect (§2's Azure/S3 deployment scenario, revisited in §7):
	// job input is fetched from a separate storage cluster through one
	// shared link of this capacity instead of from the local DFS.
	RemoteStorageBandwidth float64
}

// Validate reports whether the configuration is internally consistent.
func (c Config) Validate() error {
	switch {
	case c.Racks <= 0:
		return fmt.Errorf("topology: Racks = %d, must be positive", c.Racks)
	case c.MachinesPerRack <= 0:
		return fmt.Errorf("topology: MachinesPerRack = %d, must be positive", c.MachinesPerRack)
	case c.SlotsPerMachine <= 0:
		return fmt.Errorf("topology: SlotsPerMachine = %d, must be positive", c.SlotsPerMachine)
	case c.NICBandwidth <= 0:
		return fmt.Errorf("topology: NICBandwidth = %g, must be positive", c.NICBandwidth)
	case c.Oversubscription < 1:
		return fmt.Errorf("topology: Oversubscription = %g, must be >= 1", c.Oversubscription)
	case c.BackgroundPerRack < 0:
		return fmt.Errorf("topology: BackgroundPerRack = %g, must be >= 0", c.BackgroundPerRack)
	case c.RemoteStorageBandwidth < 0:
		return fmt.Errorf("topology: RemoteStorageBandwidth = %g, must be >= 0", c.RemoteStorageBandwidth)
	}
	if c.BackgroundPerRack >= c.RackUplinkCapacity()+1e-9 && c.BackgroundPerRack > 0 {
		if c.BackgroundPerRack >= c.RackUplinkCapacity() {
			return fmt.Errorf("topology: background traffic %g >= rack uplink capacity %g",
				c.BackgroundPerRack, c.RackUplinkCapacity())
		}
	}
	return nil
}

// Machines returns the total machine count.
func (c Config) Machines() int { return c.Racks * c.MachinesPerRack }

// Slots returns the total slot count.
func (c Config) Slots() int { return c.Machines() * c.SlotsPerMachine }

// RackUplinkCapacity returns the raw (pre-background) capacity of a rack's
// link to the core.
func (c Config) RackUplinkCapacity() float64 {
	return float64(c.MachinesPerRack) * c.NICBandwidth / c.Oversubscription
}

// LinkID identifies one registered link.
type LinkID int

// Link is one capacity-constrained network resource. Its name follows
// from its ID (Cluster.LinkName).
type Link struct {
	ID       LinkID
	Capacity float64 // bytes/sec available to simulated flows
}

// Cluster is an instantiated topology with a link registry.
type Cluster struct {
	Config Config
	links  []Link

	machineUp   []LinkID // per machine
	machineDown []LinkID
	rackUp      []LinkID // per rack
	rackDown    []LinkID
	storage     LinkID // -1 when no remote storage is configured
}

// New builds a cluster from a validated config.
func New(cfg Config) (*Cluster, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c := &Cluster{Config: cfg}
	m := cfg.Machines()
	c.machineUp = make([]LinkID, m)
	c.machineDown = make([]LinkID, m)
	c.rackUp = make([]LinkID, cfg.Racks)
	c.rackDown = make([]LinkID, cfg.Racks)

	// The registry layout LinkName decodes: each machine's uplink and
	// downlink, then each rack's, then the storage interconnect.
	n := 2*m + 2*cfg.Racks
	if cfg.RemoteStorageBandwidth > 0 {
		n++
	}
	c.links = make([]Link, 0, n)
	add := func(cap float64) LinkID {
		id := LinkID(len(c.links))
		c.links = append(c.links, Link{ID: id, Capacity: cap})
		return id
	}
	for i := 0; i < m; i++ {
		c.machineUp[i] = add(cfg.NICBandwidth)
		c.machineDown[i] = add(cfg.NICBandwidth)
	}
	rackCap := cfg.RackUplinkCapacity() - cfg.BackgroundPerRack
	for r := 0; r < cfg.Racks; r++ {
		c.rackUp[r] = add(rackCap)
		c.rackDown[r] = add(rackCap)
	}
	c.storage = -1
	if cfg.RemoteStorageBandwidth > 0 {
		c.storage = add(cfg.RemoteStorageBandwidth)
	}
	return c, nil
}

// LinkName returns a registered link's name: "m<i>-up"/"m<i>-down" for
// machine i's NIC, "r<r>-up"/"r<r>-down" for rack r's core links, or
// "storage-interconnect".
func (c *Cluster) LinkName(id LinkID) string {
	dir := [2]string{"up", "down"}[id%2]
	m := LinkID(c.Config.Machines())
	switch {
	case id < 2*m:
		return fmt.Sprintf("m%d-%s", id/2, dir)
	case id == c.storage:
		return "storage-interconnect"
	default:
		return fmt.Sprintf("r%d-%s", (id-2*m)/2, dir)
	}
}

// MustNew is New for tests with known-good configs.
func MustNew(cfg Config) *Cluster {
	c, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// Links returns the registered links. The slice is owned by the cluster;
// callers must not modify it.
func (c *Cluster) Links() []Link { return c.links }

// NumLinks returns the number of registered links.
func (c *Cluster) NumLinks() int { return len(c.links) }

// RackOf returns the rack index that machine m belongs to.
func (c *Cluster) RackOf(m int) int { return m / c.Config.MachinesPerRack }

// MachinesInRack returns the machine index range [lo, hi) for rack r.
func (c *Cluster) MachinesInRack(r int) (lo, hi int) {
	return r * c.Config.MachinesPerRack, (r + 1) * c.Config.MachinesPerRack
}

// SameRack reports whether machines a and b share a rack.
func (c *Cluster) SameRack(a, b int) bool { return c.RackOf(a) == c.RackOf(b) }

// RackUplink returns the LinkID for rack r's uplink to the core.
func (c *Cluster) RackUplink(r int) LinkID { return c.rackUp[r] }

// RackDownlink returns the LinkID for rack r's downlink from the core.
func (c *Cluster) RackDownlink(r int) LinkID { return c.rackDown[r] }

// MachineUplink returns machine m's egress link.
func (c *Cluster) MachineUplink(m int) LinkID { return c.machineUp[m] }

// MachineDownlink returns machine m's ingress link.
func (c *Cluster) MachineDownlink(m int) LinkID { return c.machineDown[m] }

// Path returns the ordered links a flow from machine src to machine dst
// traverses, and whether the flow crosses the rack-to-core boundary.
// A flow within one machine uses no network links (nil path).
func (c *Cluster) Path(src, dst int) (path []LinkID, crossRack bool) {
	if src == dst {
		return nil, false
	}
	if c.SameRack(src, dst) {
		// Full bisection bandwidth within the rack: only the NICs constrain.
		return []LinkID{c.machineUp[src], c.machineDown[dst]}, false
	}
	return []LinkID{
		c.machineUp[src],
		c.rackUp[c.RackOf(src)],
		c.rackDown[c.RackOf(dst)],
		c.machineDown[dst],
	}, true
}

// AppendPath is Path writing into a caller-provided buffer (truncated
// first): the zero-allocation variant for hot callers that immediately
// hand the path to Network.StartPath, which interns it and never retains
// the buffer.
func (c *Cluster) AppendPath(buf []LinkID, src, dst int) (path []LinkID, crossRack bool) {
	buf = buf[:0]
	if src == dst {
		return buf, false
	}
	if c.SameRack(src, dst) {
		return append(buf, c.machineUp[src], c.machineDown[dst]), false
	}
	return append(buf,
		c.machineUp[src],
		c.rackUp[c.RackOf(src)],
		c.rackDown[c.RackOf(dst)],
		c.machineDown[dst],
	), true
}

// IsRackBoundary reports whether link id is a rack uplink or downlink.
// The flow simulator uses this to account cross-rack bytes.
func (c *Cluster) IsRackBoundary(id LinkID) bool {
	firstRackLink := LinkID(2 * c.Config.Machines())
	return id >= firstRackLink && (c.storage < 0 || id != c.storage)
}

// StorageLink returns the storage interconnect link and whether remote
// storage is configured.
func (c *Cluster) StorageLink() (LinkID, bool) {
	return c.storage, c.storage >= 0
}

// StoragePath returns the links a fetch from the remote storage cluster to
// machine dst traverses: the shared interconnect, the destination rack's
// downlink and the machine NIC. Panics when remote storage is absent.
func (c *Cluster) StoragePath(dst int) []LinkID {
	if c.storage < 0 {
		panic("topology: StoragePath without remote storage")
	}
	return []LinkID{c.storage, c.rackDown[c.RackOf(dst)], c.machineDown[dst]}
}
