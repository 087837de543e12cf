// Package registry is the adapter distribution subsystem of the
// VaLoRA reproduction: a content-addressed catalog of LoRA adapters
// behind a three-tier store — per-instance GPU pools (lora.Pool), a
// bounded host-DRAM cache with LRU eviction and per-tenant residency
// quotas, and a remote registry reached over a bandwidth/latency
// modeled link. The paper assumes every adapter is host-resident (a
// miss costs one PCIe copy); a fleet serving thousands of per-task
// vision adapters must pull weights from a remote registry through a
// bounded host cache, which makes cold-start the dominant tail. The
// store runs in virtual time: remote fetches are asynchronous events
// that overlap with compute, and a queue-lookahead prefetcher warms
// the host tier from pending arrivals before requests reach an
// instance.
package registry

import (
	"hash/fnv"

	"valora/internal/idtab"
	"valora/internal/lora"
)

// Entry is one catalogued adapter: its runtime descriptor, its content
// digest and the tenant that owns it.
type Entry struct {
	Adapter *lora.Adapter
	// Digest is the content address of the adapter's weights. Two
	// adapters with identical content share a digest, so the host tier
	// never stores (or fetches) the same bytes twice.
	Digest uint64
	// Tenant names the owning service class ("" = shared).
	Tenant string
	// Family names the adapter family this adapter was generated in
	// ("" = standalone). VaLoRA's accuracy-aware generation produces
	// families of adapters over one base delta: siblings share the
	// leading SharedBytes of their weight blob, and the store dedups
	// those bytes at the chunk level. With one chunk per adapter
	// (Config.ChunkSize 0) only a wholly shared blob dedups.
	Family string
	// SharedBytes is the length of the family-shared weight prefix.
	// Only whole chunks dedup: the store rounds it down to a chunk
	// boundary, and the shared tail short of a boundary rides in the
	// adapter's first private chunk.
	SharedBytes int64
}

// Catalog maps adapter IDs to content-addressed entries. It is the
// authoritative view of what the remote registry can serve. Entries
// sit in an idtab.Table, so resolving a catalogued ID below
// idtab.DenseIDs is a slice load.
type Catalog struct {
	byID idtab.Table[*Entry]
	// famFirst remembers the first-catalogued entry of each family, the
	// representative a chunk store derives the family's shared chunk
	// list from.
	famFirst map[string]*Entry
}

// NewCatalog builds an empty catalog.
func NewCatalog() *Catalog {
	return &Catalog{famFirst: make(map[string]*Entry)}
}

// CatalogFromAdapters catalogues a whole adapter set, resolving
// ownership through tenantOf (nil = all shared).
func CatalogFromAdapters(adapters []*lora.Adapter, tenantOf func(id int) string) *Catalog {
	c := NewCatalog()
	for _, a := range adapters {
		tenant := ""
		if tenantOf != nil {
			tenant = tenantOf(a.ID)
		}
		c.Add(a, tenant)
	}
	return c
}

// CatalogFromFamilies catalogues a whole adapter set with family
// structure: familyOf reports each adapter's family and the byte
// length of its family-shared weight prefix (family "" = standalone),
// tenantOf resolves ownership (nil = all shared).
func CatalogFromFamilies(adapters []*lora.Adapter, tenantOf func(id int) string, familyOf func(id int) (string, int64)) *Catalog {
	c := NewCatalog()
	for _, a := range adapters {
		tenant := ""
		if tenantOf != nil {
			tenant = tenantOf(a.ID)
		}
		family, shared := "", int64(0)
		if familyOf != nil {
			family, shared = familyOf(a.ID)
		}
		c.addFamily(a, tenant, family, shared)
	}
	return c
}

// Digest computes the content address of an adapter's weights. The
// simulation has no real tensors, so the digest hashes the identity
// that determines content: name, rank, byte size and base model.
func Digest(a *lora.Adapter) uint64 {
	h := fnv.New64a()
	h.Write([]byte(a.Name))
	h.Write([]byte(a.Model.Name))
	var buf [16]byte
	bytes := a.Bytes()
	for i := 0; i < 8; i++ {
		buf[i] = byte(a.Rank >> (8 * i))
		buf[8+i] = byte(bytes >> (8 * i))
	}
	h.Write(buf[:])
	return h.Sum64()
}

// Add catalogues an adapter under a tenant; later additions with the
// same ID replace earlier ones.
func (c *Catalog) Add(a *lora.Adapter, tenant string) {
	c.byID.Set(a.ID, &Entry{Adapter: a, Digest: Digest(a), Tenant: tenant})
}

// addFamily catalogues an adapter as a member of an adapter family:
// the leading sharedBytes of its weight blob are the family-common
// base delta every sibling carries, which the store dedups at chunk
// granularity. sharedBytes is clamped to the adapter's size.
func (c *Catalog) addFamily(a *lora.Adapter, tenant, family string, sharedBytes int64) {
	if sharedBytes < 0 {
		sharedBytes = 0
	}
	if b := a.Bytes(); sharedBytes > b {
		sharedBytes = b
	}
	e := &Entry{Adapter: a, Digest: Digest(a), Tenant: tenant, Family: family, SharedBytes: sharedBytes}
	c.byID.Set(a.ID, e)
	if family != "" {
		if _, ok := c.famFirst[family]; !ok {
			c.famFirst[family] = e
		}
	}
}

// FamilyRep reports the representative (first-catalogued) entry of a
// family, from which a chunk store derives the family's shared chunk
// prefix.
func (c *Catalog) FamilyRep(family string) (*Entry, bool) {
	e, ok := c.famFirst[family]
	return e, ok
}

// Resolve looks an adapter ID up.
func (c *Catalog) Resolve(id int) (*Entry, bool) {
	e := c.byID.Get(id)
	return e, e != nil
}

// Len reports the number of catalogued adapters.
func (c *Catalog) Len() int { return c.byID.Len() }

// chunkDigest addresses one fixed-size chunk of an adapter's weight
// blob. Chunks inside the family-shared prefix hash the family
// identity and the chunk index — every sibling's chunk i resolves to
// the same address, which is the whole point — while private chunks
// hash the adapter's own content digest, so two adapters collide on a
// chunk exactly when the chunk's content is the same.
func chunkDigest(e *Entry, index int, shared bool) uint64 {
	h := fnv.New64a()
	if shared {
		h.Write([]byte("family:"))
		h.Write([]byte(e.Family))
		h.Write([]byte(e.Adapter.Model.Name))
	} else {
		h.Write([]byte("blob:"))
		var b [8]byte
		for i := 0; i < 8; i++ {
			b[i] = byte(e.Digest >> (8 * i))
		}
		h.Write(b[:])
	}
	var idx [8]byte
	for i := 0; i < 8; i++ {
		idx[i] = byte(uint64(index) >> (8 * i))
	}
	h.Write(idx[:])
	return h.Sum64()
}

// sharedChunkCount reports how many whole leading chunks of an entry
// are family-shared at the given chunk size.
func sharedChunkCount(e *Entry, chunkSize int64) int {
	if e.Family == "" || e.SharedBytes <= 0 {
		return 0
	}
	return int(e.SharedBytes / chunkSize)
}

// chunkSpans lists an entry's ordered (digest, bytes) chunk spans at
// the given chunk size: fixed-size chunks, the last one holding the
// remainder. The leading sharedChunkCount spans carry family-shared
// addresses.
func chunkSpans(e *Entry, chunkSize int64) []ChunkSpan {
	total := e.Adapter.Bytes()
	n := int((total + chunkSize - 1) / chunkSize)
	if n == 0 {
		n = 1
	}
	sharedN := sharedChunkCount(e, chunkSize)
	out := make([]ChunkSpan, n)
	for i := 0; i < n; i++ {
		b := chunkSize
		if rem := total - int64(i)*chunkSize; rem < b {
			b = rem
		}
		out[i] = ChunkSpan{Digest: chunkDigest(e, i, i < sharedN), Bytes: b}
	}
	return out
}

// ChunkSpan is one chunk's content address and size.
type ChunkSpan struct {
	Digest uint64
	Bytes  int64
}
