package jobs

import (
	"bytes"
	"encoding/hex"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"
)

// The record fuzz targets below differ only in their seeds: each throws
// arbitrary bytes at every job-store record decoder (journal, lease
// claim/heartbeat, dedupe index entry) through fuzzRecordDecoders, so an
// input that one target's seeds lead to is checked against all three record
// types. Each target also seeds with the committed golden line of every
// record type (internal/frame/testdata).

// FuzzDecodeJournal seeds with a healthy journal, each corruption class the
// unit tests exercise, and some shape-adjacent garbage.
func FuzzDecodeJournal(f *testing.F) {
	t0 := time.Date(2026, 8, 6, 0, 0, 0, 0, time.UTC)
	good := mustEncode(f)(EncodeJournal([]Record{
		{Seq: 1, Time: t0, State: StateQueued, Detail: "submitted"},
		{Seq: 2, Time: t0.Add(time.Minute), State: StateRunning, Attempt: 1},
		{Seq: 3, Time: t0.Add(2 * time.Minute), State: StateSucceeded, Attempt: 1},
	}))
	fuzzRecordDecoders(f,
		good,
		good[:len(good)-7],
		[]byte(""),
		[]byte("\n\n\n"),
		[]byte("twjob 1 00000000 2 {}\n"),
		[]byte("twjob 1 deadbeef 99999999 {}\n"),
		[]byte("twjob 2 00000000 2 {}\n"),
		[]byte("notmagic 1 00000000 2 {}\n"),
		[]byte(`twjob 1 ffffffff 64 {"seq":1,"time":"2026-08-06T00:00:00Z","state":"queued"}`+"\n"),
		bytes.Repeat([]byte("twjob "), 100),
	)
}

// FuzzDecodeLease seeds with held and released leases, a torn write and bad
// header fields. The token-0 line fails its frame check (length, CRC);
// TestRecordDecodersRejectRuleBreaks covers that rule.
func FuzzDecodeLease(f *testing.F) {
	t1 := time.Date(2026, 8, 8, 0, 0, 0, 0, time.UTC)
	enc := mustEncode(f)
	good := enc(EncodeLeaseRecord(LeaseRecord{Token: 7, Node: "n1", Time: t1, Expires: t1.Add(3 * time.Second)}))
	fuzzRecordDecoders(f,
		good,
		enc(EncodeLeaseRecord(LeaseRecord{
			Token: 2, Node: "drainer", Time: t1.Add(time.Hour), Expires: t1.Add(time.Hour + 3*time.Second), Released: true,
		})),
		good[:len(good)/2], // torn write
		[]byte(""),
		[]byte("\n"),
		[]byte("twlease 1 00000000 2 {}\n"), // CRC mismatch
		[]byte("twlease 1 deadbeef 99999999 {}\n"), // absurd length
		[]byte("twlease 2 00000000 2 {}\n"),        // future version
		[]byte("twjob 1 00000000 2 {}\n"),          // journal magic
		[]byte(`twlease 1 99f61486 20 {"token":0,"node":"x"}`+"\n"),
		bytes.Repeat([]byte("twlease "), 50),
	)
}

// FuzzDecodeDedupIndex seeds with idem, pending and published digest
// entries, a torn O_EXCL write and bad header fields.
func FuzzDecodeDedupIndex(f *testing.F) {
	t1 := time.Date(2026, 8, 8, 0, 0, 0, 0, time.UTC)
	digest := (&Spec{Preset: "i1", Seed: 1}).ContentDigest()
	enc := mustEncode(f)
	idem := enc(EncodeIndexEntry(IndexEntry{
		Kind: "idem", Tenant: "acme", Key: "retry-1", Digest: digest, Job: "j000001", Time: t1, Node: "n1",
	}))
	fuzzRecordDecoders(f,
		idem,
		enc(EncodeIndexEntry(IndexEntry{Kind: "digest", Digest: digest, Gen: 1, Time: t1})),
		enc(EncodeIndexEntry(IndexEntry{Kind: "digest", Digest: digest, Gen: 2, Job: "j000007", Time: t1.Add(time.Minute), Node: "n2"})),
		idem[:len(idem)/2], // torn O_EXCL write
		[]byte(""),
		[]byte("\n"),
		[]byte("twidx 1 00000000 2 {}\n"),        // CRC mismatch
		[]byte("twidx 1 deadbeef 99999999 {}\n"), // absurd length
		[]byte("twidx 2 00000000 2 {}\n"),        // future version
		[]byte("twlease 1 00000000 2 {}\n"),      // lease magic
		[]byte(`twidx 1 99f61486 15 {"kind":"idem"}`+"\n"),
		bytes.Repeat([]byte("twidx "), 50),
	)
}

func mustEncode(f *testing.F) func([]byte, error) []byte {
	return func(b []byte, err error) []byte {
		if err != nil {
			f.Fatal(err)
		}
		return b
	}
}

// fuzzRecordDecoders adds seeds, then the golden lines, and fuzzes every
// record decoder on each input: none may panic, and whatever one accepts
// must satisfy that record type's rules and survive an encode/decode round
// trip unchanged — the journal quarantine path rewrites exactly the
// accepted prefix, and the scrubber rebuilds index entries the same way.
func fuzzRecordDecoders(f *testing.F, seeds ...[]byte) {
	golden, err := filepath.Glob(filepath.Join("..", "frame", "testdata", "*.golden"))
	if err != nil || len(golden) == 0 {
		f.Fatalf("frame golden lines: %v (found %d)", err, len(golden))
	}
	for _, path := range golden {
		b, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		seeds = append(seeds, b)
	}
	for _, seed := range seeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, _ := DecodeJournal(bytes.NewReader(data))
		// The accepted prefix passes the record check line by line. Token
		// order is not a decode rule (twobs reports regressions from the
		// decoded records), so the rest of CheckJournal does not apply.
		for i := range recs {
			if err := checkRecord(recs[:i], recs[i]); err != nil {
				t.Fatalf("decoder accepted record %d: %v", i, err)
			}
		}
		enc, err := EncodeJournal(recs)
		if err != nil {
			t.Fatalf("accepted records fail to re-encode: %v", err)
		}
		again, err := DecodeJournal(bytes.NewReader(enc))
		if err != nil || !slices.Equal(again, recs) {
			t.Fatalf("journal round trip: %v, %+v != %+v", err, again, recs)
		}

		if rec, err := DecodeLeaseRecord(data); err == nil {
			if rec.Token == 0 || rec.Node == "" {
				t.Fatalf("decoder accepted invalid lease %+v", rec)
			}
			enc, err := EncodeLeaseRecord(rec)
			if err != nil {
				t.Fatalf("accepted lease fails to re-encode: %v", err)
			}
			back, err := DecodeLeaseRecord(enc)
			// Compare instants, not time.Time values: a decoded time
			// carries whatever location its text named.
			if err != nil || !back.Time.Equal(rec.Time) || !back.Expires.Equal(rec.Expires) {
				t.Fatalf("lease round trip: %v, %+v != %+v", err, back, rec)
			}
			back.Time, rec.Time, back.Expires, rec.Expires = time.Time{}, time.Time{}, time.Time{}, time.Time{}
			if back != rec {
				t.Fatalf("lease round trip changed record: %+v != %+v", back, rec)
			}
		}

		if e, err := DecodeIndexEntry(data); err == nil {
			switch {
			case e.Kind == "idem" && (e.Job == "" || e.Gen != 0),
				e.Kind == "digest" && (e.Gen <= 0 || e.Key != "" || e.Tenant != ""),
				e.Kind != "idem" && e.Kind != "digest",
				!ValidDigest(e.Digest):
				t.Fatalf("decoder accepted invalid index entry %+v", e)
			}
			enc, err := EncodeIndexEntry(e)
			if err != nil {
				t.Fatalf("accepted entry fails to re-encode: %v", err)
			}
			back, err := DecodeIndexEntry(enc)
			if err != nil || !back.Time.Equal(e.Time) {
				t.Fatalf("index round trip: %v, %+v != %+v", err, back, e)
			}
			back.Time, e.Time = time.Time{}, time.Time{}
			if back != e {
				t.Fatalf("index round trip changed entry: %+v != %+v", back, e)
			}
		}
	})
}

// TestRecordDecodersRejectRuleBreaks pins the lease and index rules every
// consumer relies on: each line below is well framed (valid checksum), so
// only the record type's own rule can reject it.
func TestRecordDecodersRejectRuleBreaks(t *testing.T) {
	t0 := time.Date(2026, 8, 8, 0, 0, 0, 0, time.UTC)
	digest := (&Spec{Preset: "i1", Seed: 1}).ContentDigest()
	lease := func(rec LeaseRecord) func() error {
		return func() error {
			rec.Time, rec.Expires = t0, t0.Add(3*time.Second)
			b, err := EncodeLeaseRecord(rec)
			if err != nil {
				t.Fatal(err)
			}
			_, err = DecodeLeaseRecord(b)
			return err
		}
	}
	index := func(e IndexEntry) func() error {
		return func() error {
			e.Time = t0
			b, err := EncodeIndexEntry(e)
			if err != nil {
				t.Fatal(err)
			}
			_, err = DecodeIndexEntry(b)
			return err
		}
	}
	for _, tc := range []struct {
		name   string
		decode func() error
		want   string
	}{
		{"lease token 0", lease(LeaseRecord{Node: "x"}), "token 0 out of range"},
		{"lease empty node", lease(LeaseRecord{Token: 1}), "empty node"},
		{"idem entry without a job", index(IndexEntry{Kind: "idem", Tenant: "acme", Key: "k", Digest: digest}), "idem entry without a job"},
		{"idem entry with a generation", index(IndexEntry{Kind: "idem", Key: "k", Digest: digest, Job: "j000001", Gen: 1}), "idem entry with generation 1"},
		{"digest entry without a generation", index(IndexEntry{Kind: "digest", Digest: digest}), "digest entry with generation 0"},
		{"digest entry with a key", index(IndexEntry{Kind: "digest", Digest: digest, Gen: 1, Key: "k"}), "carries an idempotency key"},
		{"digest entry with a tenant", index(IndexEntry{Kind: "digest", Digest: digest, Gen: 1, Tenant: "acme"}), "carries an idempotency key"},
		{"unknown kind", index(IndexEntry{Kind: "bogus", Digest: digest, Job: "j000001"}), "unknown kind"},
		{"bad digest", index(IndexEntry{Kind: "digest", Digest: "sha256:xyz", Gen: 1}), "bad digest"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.decode(); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error = %v, want one containing %q", err, tc.want)
			}
		})
	}
}

// FuzzCanonicalSpec throws arbitrary field values at the canonical spec
// encoder: it must never panic, must be a pure function of the content
// fields (two encodings of one spec are byte-identical; scheduling fields
// perturb nothing; the seed always perturbs), must apply the preset-seed
// defaulting rule, and must always yield a well-formed digest. These are the
// invariants the whole dedupe layer — index, cache, scrubber — keys off.
func FuzzCanonicalSpec(f *testing.F) {
	f.Add("i1", "", uint64(0), uint64(1), 8, 0, 0, 8, 0, 0.0, 0.0, 0.0, 0.0, true, true)
	f.Add("", "cell a 1 1\nnet n a\n", uint64(5), uint64(42), 40, 2, 7, 400, 3, 0.85, 1.1, 0.5, 1.25, false, false)
	f.Add("i3", "x\x00y\nz", uint64(17), ^uint64(0), -1, -2, -3, -4, -5, -1e308, 1e-308, 2.5, 0.1, true, false)
	f.Fuzz(func(t *testing.T, preset, netlist string, pseed, seed uint64,
		ac, m, iter, maxSteps, replicas int, r, rho, eta, aspect float64, s2, drc bool) {
		spec := Spec{
			Preset: preset, PresetSeed: pseed, Netlist: netlist, Seed: seed,
			Ac: ac, R: r, Rho: rho, Eta: eta, M: m, Iterations: iter,
			CoreAspect: aspect, MaxSteps: maxSteps,
			SkipStage2: s2, Replicas: replicas, SkipDRC: drc,
		}
		enc := AppendCanonicalSpec(nil, &spec)
		if !bytes.HasPrefix(enc, []byte(canonVersion)) {
			t.Fatalf("encoding lacks the version line: %.40q", enc)
		}
		if !bytes.Equal(enc, AppendCanonicalSpec(nil, &spec)) {
			t.Fatal("two encodings of one spec differ")
		}
		d := spec.ContentDigest()
		if !ValidDigest(d) {
			t.Fatalf("ContentDigest() = %q, not a valid digest", d)
		}
		sum, _ := SumCanonicalSpec(nil, &spec)
		if d != DigestPrefix+hex.EncodeToString(sum[:]) {
			t.Fatal("SumCanonicalSpec disagrees with ContentDigest")
		}

		// Scheduling and ownership fields must be invisible.
		sched := spec
		sched.Name, sched.Tenant = "n", "acme"
		sched.Deadline, sched.NotAfter, sched.Retries = Duration(time.Hour), 123456, 3
		sched.Digest = d
		if !bytes.Equal(enc, AppendCanonicalSpec(nil, &sched)) {
			t.Fatal("scheduling fields leaked into the canonical encoding")
		}
		// The anneal seed must always be visible.
		perturbed := spec
		perturbed.Seed++
		if bytes.Equal(enc, AppendCanonicalSpec(nil, &perturbed)) {
			t.Fatal("perturbing the seed left the encoding unchanged")
		}
		// Preset-seed defaulting: with a preset, 0 and 17 are one digest;
		// without one, the seed is inert.
		alt := spec
		switch {
		case preset != "" && pseed == 0:
			alt.PresetSeed = 17
		case preset != "" && pseed == 17:
			alt.PresetSeed = 0
		case preset == "":
			alt.PresetSeed = pseed + 1
		default:
			return
		}
		if !bytes.Equal(enc, AppendCanonicalSpec(nil, &alt)) {
			t.Fatalf("preset-seed canonicalization broken: preset=%q seed %d vs %d", preset, pseed, alt.PresetSeed)
		}
	})
}

// FuzzParseTenantConfig throws arbitrary text at the tenant-config parser:
// it must never panic, every accepted config must satisfy the policy
// invariants admission and scheduling rely on (filled weights and budgets,
// valid names, a sane max weight), and the config must survive a render/
// reparse round trip — String() is how a parent process hands its config to
// chaos child nodes.
func FuzzParseTenantConfig(f *testing.F) {
	f.Add("")
	f.Add("# comment only\n\n")
	f.Add("* weight=1 rate=2 burst=5 max_inflight=8\nacme weight=4 rate=10 burst=20 max_inflight=32 retry_budget=16\n")
	f.Add("lab-7 rate=0.5\n")
	f.Add("a.b_c-D weight=3 burst=0.25\n")
	f.Add("acme weight=0\n")
	f.Add("acme rate=NaN\n")
	f.Add("acme rate=+Inf\n")
	f.Add("acme rate=-1\n")
	f.Add("acme weight=99999999999999999999\n")
	f.Add("a weight=1\na weight=2\n")
	f.Add("* weight=1\n* weight=2\n")
	f.Add("acme weight=1 weight=2\n")
	f.Add("acme bogus=1\n")
	f.Add("acme weight\n")
	f.Add("acme weight=\n")
	f.Add("ac/me weight=1\n")
	f.Add(strings.Repeat("x", maxTenantLine+10))
	f.Add("\x00 weight=1\n")
	f.Add("a rate=1e308\n")
	f.Fuzz(func(t *testing.T, s string) {
		c, err := ParseTenantConfig(strings.NewReader(s))
		if err != nil {
			return
		}
		if c.MaxWeight() < 1 {
			t.Fatalf("accepted config has MaxWeight %d", c.MaxWeight())
		}
		for _, name := range c.Names() {
			if !ValidTenantName(name) {
				t.Fatalf("accepted config lists invalid tenant name %q", name)
			}
		}
		for _, name := range append(c.Names(), "", "unlisted") {
			p := c.Policy(name)
			if p.Weight < 1 || p.RetryBudget < 1 {
				t.Fatalf("Policy(%q) = %+v: unfilled defaults", name, p)
			}
			if p.Rate > 0 && p.Burst < 1 {
				t.Fatalf("Policy(%q) = %+v: rate-limited with burst < 1", name, p)
			}
		}
		// Render/reparse must be lossless: same rendering, same policies.
		again, err := ParseTenantConfig(strings.NewReader(c.String()))
		if err != nil {
			t.Fatalf("rendering of accepted config rejected: %v\n%s", err, c.String())
		}
		if again.String() != c.String() {
			t.Fatalf("round trip changed config:\n%s\nvs\n%s", c.String(), again.String())
		}
	})
}
