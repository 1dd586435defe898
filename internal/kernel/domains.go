package kernel

import "repro/internal/addr"

// Sharded, lazily-initialized kernel indexes. The original flat
// map[DomainID]*Domain and map[VPN]*page worked for experiments with a
// handful of long-lived domains, but the multi-tenant target — millions
// of short-lived sessions churning through the ID space — wants two
// different properties:
//
//   - Domain lookup is on the access path (ResolveRights runs it per
//     protection fault), so it should be an array index, not a hash
//     probe.
//   - An idle kernel, or one whose sessions all departed, should hold
//     memory proportional to what is live, not to the high-water mark
//     of one big hash table.
//
// domainTable shards the full DomainID space (uint16, so 256 shards of
// 256 slots cover every possible ID) into lazily-allocated fixed-size
// shards: lookup is two array indexes, insertion allocates at most one
// 2 KB shard, and iteration is deterministic ascending-ID order without
// sorting. Live-domain capacity is bounded by the ID type itself — the
// architectural width of the domain/ASID field — so production scale
// comes from recycling destroyed IDs (lifecycle.go), exactly as the
// paper's Section 4 prescribes for the page-group model's group
// numbers.

const (
	domainShardBits = 8
	domainShards    = 1 << domainShardBits
	domainShardSize = 1 << (16 - domainShardBits) // DomainID is uint16
	domainSlotMask  = domainShardSize - 1
)

type domainShard [domainShardSize]*Domain

// domainTable is the sharded domain index. The zero value is ready to
// use.
type domainTable struct {
	shards [domainShards]*domainShard
	n      int
}

// get returns the live domain with the given ID, or nil.
func (t *domainTable) get(id addr.DomainID) *Domain {
	s := t.shards[id>>domainShardBits]
	if s == nil {
		return nil
	}
	return s[id&domainSlotMask]
}

// put registers d under its ID, allocating the covering shard on first
// use.
func (t *domainTable) put(d *Domain) {
	hi := d.ID >> domainShardBits
	s := t.shards[hi]
	if s == nil {
		s = new(domainShard)
		t.shards[hi] = s
	}
	if s[d.ID&domainSlotMask] == nil {
		t.n++
	}
	s[d.ID&domainSlotMask] = d
}

// remove drops the domain with the given ID, if present.
func (t *domainTable) remove(id addr.DomainID) {
	s := t.shards[id>>domainShardBits]
	if s == nil {
		return
	}
	if s[id&domainSlotMask] != nil {
		s[id&domainSlotMask] = nil
		t.n--
	}
}

// len returns the number of live domains.
func (t *domainTable) len() int { return t.n }

// forEach visits every live domain in ascending ID order.
func (t *domainTable) forEach(fn func(*Domain)) {
	left := t.n
	for _, s := range t.shards {
		if left == 0 {
			return
		}
		if s == nil {
			continue
		}
		for _, d := range s {
			if d != nil {
				fn(d)
				left--
			}
		}
	}
}

// pageTable is the sharded per-page record index: VPNs hash into a
// fixed set of lazily-allocated map shards, so one kernel never grows a
// single monster hash table and an idle kernel holds no page-record
// memory at all. Low VPN bits select the shard, spreading the dense
// page runs of a segment across all shards.
const pageShards = 64

type pageTable struct {
	shards [pageShards]map[addr.VPN]*page
	n      int
}

// get returns the record for vpn, or nil.
func (t *pageTable) get(vpn addr.VPN) *page {
	m := t.shards[uint64(vpn)&(pageShards-1)]
	if m == nil {
		return nil
	}
	return m[vpn]
}

// put registers p under vpn, allocating the covering shard on first
// use.
func (t *pageTable) put(vpn addr.VPN, p *page) {
	i := uint64(vpn) & (pageShards - 1)
	m := t.shards[i]
	if m == nil {
		m = make(map[addr.VPN]*page)
		t.shards[i] = m
	}
	if _, ok := m[vpn]; !ok {
		t.n++
	}
	m[vpn] = p
}

// remove drops the record for vpn, if present.
func (t *pageTable) remove(vpn addr.VPN) {
	m := t.shards[uint64(vpn)&(pageShards-1)]
	if m == nil {
		return
	}
	if _, ok := m[vpn]; ok {
		delete(m, vpn)
		t.n--
	}
}

// len returns the number of live page records.
func (t *pageTable) len() int { return t.n }
