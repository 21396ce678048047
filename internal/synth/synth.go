// Package synth generates the calibrated synthetic corpus this
// reproduction runs on: WHOIS (CAIDA AS2Org) and PeeringDB snapshots, a
// simulated web universe, APNIC per-AS user-population estimates, and a
// CAIDA AS-Rank ranking — together with the ground truth the evaluation
// harness scores against.
//
// The generator is seeded and fully deterministic. At Scale 1.0 it
// targets the corpus statistics the paper publishes for its July 2024
// snapshots (§5.2): 117,431 WHOIS ASNs in 95,300 organizations; 30,955
// PeeringDB networks in 27,712 organizations; 17,633 non-empty text
// fields of which 2,916 are numeric; 26,225 website fields referencing
// 24,200 unique URLs; roughly 22.5k reachable networks converging on
// ~20.1k final URLs; ~14.5k unique favicons of which 440 are shared by
// more than one final URL; and a 4.21-billion-user APNIC population.
// Named conglomerates, hypergiants, and merger stories (Lumen/Level3,
// Edgecast/Limelight, Sprint/T-Mobile, Claro, Digicel, DE-CIX, …) are
// embedded so every table and figure reports the entities the paper
// reports.
package synth

import (
	"fmt"
	"math/rand"

	"github.com/nu-aqualab/borges/internal/apnic"
	"github.com/nu-aqualab/borges/internal/asnum"
	"github.com/nu-aqualab/borges/internal/asrank"
	"github.com/nu-aqualab/borges/internal/peeringdb"
	"github.com/nu-aqualab/borges/internal/websim"
	"github.com/nu-aqualab/borges/internal/whois"
)

// Config parameterises generation.
type Config struct {
	// Seed drives all pseudo-randomness (default 1).
	Seed int64
	// Scale multiplies the anonymous-population targets; 1.0 is paper
	// scale. Named entities are always embedded in full. Values around
	// 0.05 give fast test corpora.
	Scale float64
}

// Scale bounds. MinScale keeps every quota at least 1; MaxScale is
// bounded by the 32-bit ASN space: the allocator starts at 200000 and
// at MaxScale the WHOIS population (~120M ASNs) still leaves the
// uint32 counter far from wrapping. All intermediate quota arithmetic
// is float64/int64 and safe well past this bound.
const (
	MinScale = 0.005
	MaxScale = 1024.0
)

// Dataset is a complete generated corpus.
type Dataset struct {
	Config Config
	WHOIS  *whois.Snapshot
	PDB    *peeringdb.Snapshot
	Web    *websim.Universe
	APNIC  *apnic.Table
	ASRank *asrank.Ranking
	Truth  *GroundTruth
}

// targets are the paper's corpus statistics at Scale 1.0.
type targets struct {
	whoisASNs, whoisOrgs int
	pdbNets, pdbOrgs     int

	textRecords    int // non-empty notes/aka
	numericRecords int // containing digits
	siblingRecords int // truly reporting extractable siblings
	hardFN, hardFP int

	websiteNets   int // nets with a website field
	duplicateURLs int // nets sharing a URL with another net
	downNets      int // nets whose site is unreachable

	sameBrandCompany  int // shared favicon + same brand label (step 1)
	diffRecoverTotal  int // claro-style recoverable groups (step 2)
	diffUnrecoverable int // DE-CIX-style natural FNs
	frameworkGroups   int // default framework icons
	fpGroups          int // framework icons behind a shared brand label

	pairsP, pairsRR, pairsNA, pairsF int // anonymous merge units

	changedOrgs     int   // orgs whose population changes under Borges
	unchangedOrgs   int   // orgs with users and no change
	totalUsers      int64 // global APNIC population
	changedAS2Org   int64 // Σ largest-prior-group users over changed orgs
	changedMarginal int64 // Σ marginal growth (Borges − AS2Org)

	rankSize int
	dodASNs  int
	iscNets  int
}

func scaled(cfg Config) targets {
	s := cfg.Scale
	m := func(v int) int {
		out := int(float64(v)*s + 0.5)
		if v > 0 && out < 1 {
			out = 1
		}
		return out
	}
	return targets{
		whoisASNs: m(117431), whoisOrgs: m(95300),
		pdbNets: m(30955), pdbOrgs: m(27712),
		textRecords:    m(17633),
		numericRecords: m(2916),
		siblingRecords: m(861), // 849 extracted + 12 missed
		hardFN:         m(12),
		hardFP:         m(5),
		websiteNets:    m(26225),
		duplicateURLs:  m(2025),
		downNets:       m(3702),

		sameBrandCompany:  m(280),
		diffRecoverTotal:  m(38),
		diffUnrecoverable: m(5),
		frameworkGroups:   m(116),
		fpGroups:          m(1),

		pairsP: m(850), pairsRR: m(430), pairsNA: m(260), pairsF: m(60),

		changedOrgs:     m(352),
		unchangedOrgs:   m(25105),
		totalUsers:      int64(float64(4_211_000_000) * s),
		changedAS2Org:   int64(float64(1_060_840_352) * s), // 352 × 3,013,751
		changedMarginal: int64(float64(192_722_464) * s),   // 352 × 547,507

		rankSize: m(10000),
		dodASNs:  m(973),
		iscNets:  m(82),
	}
}

// gen is the generator's working state.
type gen struct {
	cfg Config
	t   targets
	rng *rand.Rand
	ds  *Dataset

	used     map[asnum.ASN]bool
	nextASN  uint32
	nextPDBO int
	nextPDBN int

	hostUsed  map[string]bool
	rankTaken map[int]bool
	rankNext  int // every rank below rankNext is taken

	// Bookkeeping toward quotas.
	countSibling, countHardFN, countHardFP int
	countNumericNoise, countNonNumeric     int
	countWebsites, countDupURLs, countDown int
	countSameBrand, countDiffRecover       int
	countDiffUnrecover, countFramework     int
	countChanged                           int

	// changedMains/changedSubs accumulate APNIC rows of anonymous
	// changed orgs for final rescaling toward the Table 7 means.
	anonChangedAS2Org, anonChangedMarginal int64

	// named carries bookkeeping shared across build phases.
	named namedState

	// Streaming state. When emit is set, the working dataset is
	// yielded and replaced with a fresh chunk every chunkUnits
	// generation units. Because the flushed snapshots reset, quota
	// loops read the cumulative counters below instead of the live
	// dataset, and the ranking phase replays the retained ASN list
	// instead of WHOIS.ASNs().
	emit         func(*Dataset) error
	chunkUnits   int
	unitsInChunk int

	cumWHOISOrgs int
	cumWHOISASNs int
	cumRank      int
	allWHOIS     []asnum.ASN
}

// newChunk returns an empty dataset slice carrying the run's config and
// snapshot dates.
func newChunk(cfg Config) *Dataset {
	return &Dataset{
		Config: cfg,
		WHOIS:  whois.NewSnapshot("20240701"),
		PDB:    peeringdb.NewSnapshot("20240724"),
		Web:    websim.New(),
		APNIC:  apnic.NewTable("20240701"),
		ASRank: asrank.NewRanking("20240701"),
		Truth:  newGroundTruth(),
	}
}

func newGen(cfg Config) (*gen, error) {
	if cfg.Scale == 0 {
		cfg.Scale = 1.0
	}
	if cfg.Scale < MinScale || cfg.Scale > MaxScale {
		return nil, fmt.Errorf("synth: scale %v out of range [%v, %v]", cfg.Scale, MinScale, MaxScale)
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	return &gen{
		cfg:       cfg,
		t:         scaled(cfg),
		rng:       rand.New(rand.NewSource(cfg.Seed)),
		ds:        newChunk(cfg),
		used:      make(map[asnum.ASN]bool),
		nextASN:   200000,
		nextPDBO:  1,
		nextPDBN:  1,
		hostUsed:  make(map[string]bool),
		rankTaken: make(map[int]bool),
		rankNext:  1,
	}, nil
}

// run executes the build phases in their fixed order.
func (g *gen) run() {
	g.buildConglomerates()
	g.buildHypergiants()
	g.buildSpecials()
	g.buildMergeUnits()
	g.buildClassifierCorpus()
	g.buildFill()
	g.buildRanking()
}

// Generate builds a corpus.
func Generate(cfg Config) (*Dataset, error) {
	g, err := newGen(cfg)
	if err != nil {
		return nil, err
	}
	g.run()
	return g.ds, nil
}

// emitAbort unwinds generation when a yield returns an error.
type emitAbort struct{ err error }

// GenerateStream builds the exact corpus Generate builds — same seed,
// same records, same pseudo-random draws — but yields it as a sequence
// of partial Dataset chunks of roughly chunkUnits generation units
// each, so peak memory is bounded by the chunk size instead of the
// corpus size. Every record lands in exactly one chunk; merging the
// chunks (MergeChunk) reproduces Generate's output record for record
// at any chunk size. chunkUnits <= 0 yields the whole corpus as a
// single chunk. A yield error aborts generation and is returned.
//
// Flushes only happen at whole-unit boundaries in the anonymous fill
// phases: the named builders mutate records they created earlier in
// the same phase (setNetText), so their output always shares a chunk.
func GenerateStream(cfg Config, chunkUnits int, yield func(*Dataset) error) (err error) {
	if yield == nil {
		return fmt.Errorf("synth: GenerateStream requires a yield function")
	}
	g, gerr := newGen(cfg)
	if gerr != nil {
		return gerr
	}
	g.emit = yield
	g.chunkUnits = chunkUnits
	defer func() {
		if r := recover(); r != nil {
			a, ok := r.(emitAbort)
			if !ok {
				panic(r)
			}
			err = a.err
		}
	}()
	g.run()
	g.flush()
	return nil
}

// maybeFlush marks one completed generation unit and flushes the
// working chunk when it reaches the configured size. A unit is one
// self-contained record group (an org with its nets, sites, and truth
// entries) — nothing generated later mutates it, so the chunk boundary
// is always safe.
func (g *gen) maybeFlush() {
	if g.emit == nil || g.chunkUnits <= 0 {
		return
	}
	g.unitsInChunk++
	if g.unitsInChunk >= g.chunkUnits {
		g.flush()
	}
}

// flush yields the working chunk and starts a fresh one.
func (g *gen) flush() {
	if g.emit == nil {
		return
	}
	ds := g.ds
	g.ds = newChunk(g.cfg)
	g.unitsInChunk = 0
	if err := g.emit(ds); err != nil {
		panic(emitAbort{err})
	}
}

// MergeChunk folds a streamed chunk into dst, in yield order. The
// result of merging every chunk of a GenerateStream run is
// record-for-record identical to the Generate dataset for the same
// config: each container's deterministic Write ordering makes the
// serialized forms byte-identical.
func MergeChunk(dst, src *Dataset) {
	for _, id := range src.WHOIS.OrgIDs() {
		dst.WHOIS.AddOrg(*src.WHOIS.Org(id))
	}
	for _, id := range src.WHOIS.OrgIDs() {
		for _, a := range src.WHOIS.Members(id) {
			dst.WHOIS.AddAS(*src.WHOIS.AS(a))
		}
	}
	for _, o := range src.PDB.Orgs() {
		dst.PDB.AddOrg(*o)
	}
	for _, n := range src.PDB.Nets() {
		dst.PDB.AddNet(*n)
	}
	for _, m := range src.Web.Export() {
		dst.Web.AddManifest(m)
	}
	for _, r := range src.APNIC.Records() {
		dst.APNIC.Add(r)
	}
	for _, e := range src.ASRank.Entries() {
		// Ranks and ASNs are globally unique across chunks by
		// construction; an error here would mean a generator bug, and
		// the dropped entry surfaces in the equivalence checks.
		_ = dst.ASRank.Add(e)
	}
	for _, o := range src.Truth.Orgs() {
		dst.Truth.addOrg(o)
	}
	for a, sibs := range src.Truth.NERSiblings {
		dst.Truth.NERSiblings[a] = sibs
	}
	for a, k := range src.Truth.NERKind {
		dst.Truth.NERKind[a] = k
	}
	for h, k := range src.Truth.iconKind {
		dst.Truth.iconKind[h] = k
	}
}

// ---- allocation helpers ----

func (g *gen) alloc() asnum.ASN {
	for {
		a := asnum.ASN(g.nextASN)
		g.nextASN++
		if !a.IsReserved() && !g.used[a] {
			g.used[a] = true
			return a
		}
	}
}

func (g *gen) claim(a asnum.ASN) asnum.ASN {
	if a == 0 || g.used[a] {
		return g.alloc()
	}
	g.used[a] = true
	return a
}

func (g *gen) pdbOrgID() int {
	id := g.nextPDBO
	g.nextPDBO++
	return id
}

func (g *gen) pdbNetID() int {
	id := g.nextPDBN
	g.nextPDBN++
	return id
}

// host returns a unique hostname based on the proposal, appending a
// counter on collision.
func (g *gen) host(proposal string) string {
	h := proposal
	for i := 2; g.hostUsed[h]; i++ {
		h = fmt.Sprintf("%s%d", proposal, i)
	}
	g.hostUsed[h] = true
	return h
}

// rank assigns the closest free rank at or after want (1-based). Every
// rank below rankNext is taken, so the probe starts no lower than it;
// rankNext only moves forward, so a run of rank(1) calls costs
// amortized O(1) per call.
func (g *gen) rank(want int) int {
	if want < g.rankNext {
		want = g.rankNext
	}
	for g.rankTaken[want] {
		want++
	}
	g.rankTaken[want] = true
	for g.rankTaken[g.rankNext] {
		g.rankNext++
	}
	return want
}

// addWHOIS registers an org and its ASNs. The cumulative counters and
// the retained ASN list survive chunk flushes; the quota loops and the
// ranking phase read them instead of the (possibly reset) snapshot.
func (g *gen) addWHOIS(orgID, name, country string, asns []asnum.ASN) {
	g.ds.WHOIS.AddOrg(whois.Org{ID: orgID, Name: name, Country: country, Source: rirFor(country)})
	for _, a := range asns {
		g.ds.WHOIS.AddAS(whois.ASRecord{ASN: a, OrgID: orgID, Name: name, Source: rirFor(country)})
	}
	g.cumWHOISOrgs++
	g.cumWHOISASNs += len(asns)
	g.allWHOIS = append(g.allWHOIS, asns...)
}

// numNets is the cumulative PeeringDB net count: every net takes a
// fresh ID from pdbNetID, so the counter is the count (setNetText
// replaces an existing ID and does not change it).
func (g *gen) numNets() int { return g.nextPDBN - 1 }

func rirFor(cc string) string {
	switch cc {
	case "US", "CA":
		return "ARIN"
	case "BR", "AR", "CL", "PE", "CO", "MX", "DO", "EC", "BO", "PY", "UY",
		"GT", "SV", "HN", "NI", "CR", "PA", "JM", "TT", "PR", "HT":
		return "LACNIC"
	case "JP", "KR", "TW", "CN", "HK", "SG", "MY", "TH", "VN", "PH", "ID",
		"IN", "BD", "PK", "LK", "NP", "AU", "NZ", "FJ", "PG":
		return "APNIC"
	case "ZA", "NG", "GH", "KE", "TZ", "UG", "EG", "MA", "TN", "SN", "CI",
		"CM", "AO", "MZ":
		return "AFRINIC"
	default:
		return "RIPE"
	}
}

// addNet registers a PeeringDB network.
func (g *gen) addNet(orgID int, asn asnum.ASN, name, aka, notes, website string) {
	g.ds.PDB.AddNet(peeringdb.Net{
		ID: g.pdbNetID(), OrgID: orgID, ASN: asn,
		Name: name, Aka: aka, Notes: notes, Website: website,
	})
	if notes != "" || aka != "" {
		hasNum := hasDigits(notes) || hasDigits(aka)
		if !hasNum {
			g.countNonNumeric++
		}
	}
	if website != "" {
		g.countWebsites++
	}
}

func hasDigits(s string) bool {
	for _, r := range s {
		if r >= '0' && r <= '9' {
			return true
		}
	}
	return false
}

// users adds an APNIC row.
func (g *gen) users(a asnum.ASN, cc string, n int64) {
	if n <= 0 {
		return
	}
	g.ds.APNIC.Add(apnic.Record{ASN: a, CC: cc, Users: n, PctOfCountry: 0})
}

// splitUsers distributes total across k parts deterministically with
// mild variation, parts summing exactly to total.
func (g *gen) splitUsers(total int64, k int) []int64 {
	if k <= 0 {
		return nil
	}
	out := make([]int64, k)
	base := total / int64(k)
	var assigned int64
	for i := 0; i < k; i++ {
		jitter := int64(0)
		if base > 10 {
			jitter = int64(g.rng.Float64()*0.4-0.2) * (base / 10) * 2
		}
		out[i] = base + jitter
		if out[i] < 0 {
			out[i] = 0
		}
		assigned += out[i]
	}
	out[0] += total - assigned
	if out[0] < 0 {
		out[0] = 0
	}
	return out
}
