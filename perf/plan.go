package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/server"
)

// checkEvery is how often a response body is compared byte for byte
// with the answer computed in-process: 1 request in 64.
const checkEvery = 64

// request is one planned query: the URI the real server is sent and the
// structured form the traced pass hands to the query engine directly.
type request struct {
	endpoint string   // instances | concepts | typicality | plausibility | conceptualize
	a, b     string   // concept or term; instance (typicality, plausibility)
	terms    []string // conceptualize
	k        int
	uri      string
}

// plan is a request pool drawn from a snapshot's own vocabulary plus the
// order in which connections walk it. It is a pure function of
// (snapshot, seed, kind, size).
type plan struct {
	cold     bool
	seed     int64
	pool     []request
	expected [][]byte // expected[i] != nil where pool[i]'s body is known
}

// vocab is the part of a snapshot requests are drawn from.
type vocab struct {
	concepts  []string   // base labels, sorted
	instances []string   // sorted
	members   [][]string // members[i]: instance children of concepts[i]'s dominant sense
	families  []int      // indices into concepts with at least three members
}

func newVocab(pb *core.Probase) (*vocab, error) {
	g := pb.Graph
	v := &vocab{}
	seen := map[string]bool{}
	for _, id := range g.Concepts() {
		base := core.BaseLabel(g.Label(id))
		if seen[base] {
			continue
		}
		seen[base] = true
		var members []string
		if senses := pb.SensesOf(base); len(senses) > 0 {
			for _, e := range g.Children(g.Lookup(senses[0])) {
				if g.Kind(e.To) == graph.KindInstance {
					members = append(members, g.Label(e.To))
				}
			}
		}
		if len(members) >= 3 {
			v.families = append(v.families, len(v.concepts))
		}
		v.concepts = append(v.concepts, base)
		v.members = append(v.members, members)
	}
	for _, id := range g.Instances() {
		v.instances = append(v.instances, g.Label(id))
	}
	if len(v.families) == 0 || len(v.instances) == 0 {
		return nil, fmt.Errorf("snapshot too small to plan requests: %d concepts with three instances, %d instances",
			len(v.families), len(v.instances))
	}
	return v, nil
}

// endpointMix is the share of each endpoint in a plan, in percent:
// instances 30, concepts 30, typicality 15, plausibility 10, conceptualize 15.
var endpointMix = []struct {
	endpoint string
	upTo     int
}{{"instances", 30}, {"concepts", 60}, {"typicality", 75}, {"plausibility", 85}, {"conceptualize", 100}}

var hotKs = []int{5, 10, 20, 50}

// buildPlan draws size distinct requests. The hot plan asks for short
// answers about related pairs, the way an application re-asks popular
// questions; the cold plan spreads uniformly over the whole vocabulary
// with k uniform in 100..1000, so that no two requests share a cache key.
func buildPlan(pb *core.Probase, cold bool, seed int64, size int) (*plan, error) {
	v, err := newVocab(pb)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	p := &plan{cold: cold, seed: seed, pool: make([]request, 0, size), expected: make([][]byte, size)}
	seen := make(map[string]bool, size)
	for tries := 0; len(p.pool) < size; tries++ {
		if tries > 100*size {
			return nil, fmt.Errorf("vocabulary too small for %d distinct requests (got %d)", size, len(p.pool))
		}
		r := v.draw(rng, cold)
		if !seen[r.uri] {
			seen[r.uri] = true
			p.pool = append(p.pool, r)
		}
	}
	return p, nil
}

func (v *vocab) draw(rng *rand.Rand, cold bool) request {
	pct := rng.Intn(100)
	endpoint := ""
	for _, m := range endpointMix {
		if pct < m.upTo {
			endpoint = m.endpoint
			break
		}
	}
	k := hotKs[rng.Intn(len(hotKs))]
	if cold {
		k = 100 + rng.Intn(901)
	}
	fam := v.families[rng.Intn(len(v.families))]
	r := request{endpoint: endpoint, k: k}
	q := url.Values{}
	switch endpoint {
	case "instances":
		r.a = v.concepts[rng.Intn(len(v.concepts))]
		q.Set("concept", r.a)
		q.Set("k", strconv.Itoa(k))
	case "concepts":
		r.a = v.instances[rng.Intn(len(v.instances))]
		q.Set("term", r.a)
		q.Set("k", strconv.Itoa(k))
	case "typicality", "plausibility":
		if cold {
			r.a = v.concepts[rng.Intn(len(v.concepts))]
			r.b = v.instances[rng.Intn(len(v.instances))]
		} else {
			r.a = v.concepts[fam]
			r.b = v.members[fam][rng.Intn(len(v.members[fam]))]
		}
		if endpoint == "typicality" {
			q.Set("concept", r.a)
			q.Set("instance", r.b)
		} else {
			q.Set("x", r.a)
			q.Set("y", r.b)
		}
	case "conceptualize":
		for _, i := range rng.Perm(len(v.members[fam]))[:3] {
			r.terms = append(r.terms, v.members[fam][i])
		}
		q.Set("terms", strings.Join(r.terms, ","))
		q.Set("k", strconv.Itoa(k))
	}
	r.uri = "/v1/" + endpoint + "?" + q.Encode()
	return r
}

// stream returns connection conn's walk over the pool, as pool indices.
// Hot connections draw Zipf(1.1) ranks from their own seeded source, so
// a few requests carry most of the traffic and the working set is the
// pool; cold connections deal the pool out in turn, so a URI comes back
// only after the whole pool — far more than the response cache holds —
// has gone by.
func (p *plan) stream(conn, conns int) func() int {
	if p.cold {
		next := conn
		return func() int {
			i := next % len(p.pool)
			next += conns
			return i
		}
	}
	z := rand.NewZipf(rand.New(rand.NewSource(p.seed*1000+int64(conn))), 1.1, 1, uint64(len(p.pool)-1))
	return func() int { return int(z.Uint64()) }
}

// streamHash is the SHA-256 of the first n URIs of each of conns connections.
func (p *plan) streamHash(conns, n int) string {
	h := sha256.New()
	for c := 0; c < conns; c++ {
		next := p.stream(c, conns)
		for i := 0; i < n; i++ {
			h.Write([]byte(p.pool[next()].uri))
			h.Write([]byte{'\n'})
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// fillExpected computes, from pb through an in-process server.Server,
// the body of every request whose response the generator will compare:
// all of a hot pool, every 64th entry of a cold one. pb is opened by the
// heap loader while the server under test maps the file, so the
// comparison also holds the two storage backends to the same bytes.
func (p *plan) fillExpected(pb *core.Probase) error {
	ref := server.New(pb, server.Config{})
	for i, r := range p.pool {
		if p.cold && i%checkEvery != 0 {
			continue
		}
		rec := httptest.NewRecorder()
		ref.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, r.uri, nil))
		if rec.Code != http.StatusOK {
			return fmt.Errorf("planned request %s answers %d in-process, want 200", r.uri, rec.Code)
		}
		p.expected[i] = rec.Body.Bytes()
	}
	return nil
}

// query answers r from the engine directly — the calls the handler of
// r's endpoint makes, without HTTP, cache, telemetry or JSON.
func query(pb *core.Probase, r request) {
	switch r.endpoint {
	case "instances":
		pb.InstancesOf(r.a, r.k)
	case "concepts":
		pb.ConceptsOf(r.a, r.k)
	case "typicality":
		pb.InstancesOf(r.a, serverMaxK)
		pb.ConceptsOf(r.b, serverMaxK)
	case "plausibility":
		pb.Plausibility(r.a, r.b)
	case "conceptualize":
		pb.Conceptualize(r.terms, r.k)
	}
}

// serverMaxK is server.Config's default MaxK, which the typicality
// handler passes to both ranked lookups.
const serverMaxK = 1000
