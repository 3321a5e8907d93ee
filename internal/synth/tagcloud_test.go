package synth

import (
	"testing"

	"lakenav/internal/lake"
	"lakenav/vector"
)

func smallTagCloud(t *testing.T) *TagCloud {
	t.Helper()
	tc, err := GenerateTagCloud(SmallTagCloudConfig())
	if err != nil {
		t.Fatal(err)
	}
	return tc
}

func TestGenerateTagCloudShape(t *testing.T) {
	cfg := SmallTagCloudConfig()
	tc := smallTagCloud(t)
	if got := len(tc.Lake.Attrs); got != cfg.Attributes {
		t.Errorf("attributes = %d, want %d", got, cfg.Attributes)
	}
	if got := len(tc.Lake.Tags()); got != cfg.Tags {
		t.Errorf("tags = %d, want %d", got, cfg.Tags)
	}
	if len(tc.Lake.Tables) == 0 {
		t.Fatal("no tables generated")
	}
	// Every table has between 1 and MaxAttrsPerTable attributes.
	for _, tbl := range tc.Lake.Tables {
		if len(tbl.Attrs) < 1 || len(tbl.Attrs) > cfg.MaxAttrsPerTable {
			t.Errorf("table %s has %d attrs", tbl.Name, len(tbl.Attrs))
		}
	}
}

func TestTagCloudOneTagPerAttribute(t *testing.T) {
	tc := smallTagCloud(t)
	for _, a := range tc.Lake.Attrs {
		tags := tc.Lake.AttrTags(a.ID)
		if len(tags) != 1 {
			t.Fatalf("attr %d has %d tags, want exactly 1", a.ID, len(tags))
		}
		if tags[0] != tc.TruthTag[a.ID] {
			t.Fatalf("attr %d tag %q != truth %q", a.ID, tags[0], tc.TruthTag[a.ID])
		}
	}
}

func TestTagCloudEveryTagPopulated(t *testing.T) {
	tc := smallTagCloud(t)
	for _, tag := range tc.Lake.Tags() {
		if len(tc.Lake.TextTagAttrs(tag)) == 0 {
			t.Errorf("tag %q has no attributes", tag)
		}
	}
}

func TestTagCloudValueBounds(t *testing.T) {
	cfg := SmallTagCloudConfig()
	tc := smallTagCloud(t)
	for _, a := range tc.Lake.Attrs {
		if len(a.Values) < cfg.MinValues || len(a.Values) > cfg.MaxValues {
			t.Errorf("attr %d has %d values, want [%d, %d]",
				a.ID, len(a.Values), cfg.MinValues, cfg.MaxValues)
		}
		if !a.Text {
			t.Errorf("attr %d not textual", a.ID)
		}
	}
}

func TestTagCloudTopicVectorsNearTruthTag(t *testing.T) {
	tc := smallTagCloud(t)
	// The benchmark's defining guarantee: an attribute's topic vector is
	// closest to its own tag's centroid.
	topics := tc.Space.Topics()
	for _, a := range tc.Lake.Attrs[:50] {
		truth := tc.TruthTag[a.ID]
		tv, _ := tc.Space.Lookup(truth)
		own := vector.Cosine(a.Topic, tv)
		if own < 0.8 {
			t.Errorf("attr %d only %.3f similar to its tag", a.ID, own)
		}
		for _, other := range topics {
			if other == truth {
				continue
			}
			ov, _ := tc.Space.Lookup(other)
			if vector.Cosine(a.Topic, ov) >= own {
				t.Fatalf("attr %d closer to %s than truth %s", a.ID, other, truth)
			}
		}
	}
}

func TestTagCloudDeterministic(t *testing.T) {
	a := smallTagCloud(t)
	b := smallTagCloud(t)
	if len(a.Lake.Tables) != len(b.Lake.Tables) {
		t.Fatal("same-seed runs differ in table count")
	}
	for id, tag := range a.TruthTag {
		if b.TruthTag[id] != tag {
			t.Fatalf("same-seed truth differs for attr %d", id)
		}
	}
}

func TestTagCloudInvalidConfig(t *testing.T) {
	cfg := SmallTagCloudConfig()
	cfg.Attributes = cfg.Tags - 1
	if _, err := GenerateTagCloud(cfg); err == nil {
		t.Error("attrs < tags accepted")
	}
	cfg = SmallTagCloudConfig()
	cfg.MinValues = 0
	if _, err := GenerateTagCloud(cfg); err == nil {
		t.Error("MinValues=0 accepted")
	}
	cfg = SmallTagCloudConfig()
	cfg.MaxValues = cfg.MinValues - 1
	if _, err := GenerateTagCloud(cfg); err == nil {
		t.Error("MaxValues < MinValues accepted")
	}
}

func TestEnrich(t *testing.T) {
	tc := smallTagCloud(t)
	before := make(map[lake.AttrID]int)
	for _, a := range tc.Lake.Attrs {
		before[a.ID] = len(tc.Lake.AttrTags(a.ID))
	}
	added := tc.Enrich()
	if added == 0 {
		t.Fatal("Enrich added nothing")
	}
	twoTagged := 0
	for _, a := range tc.Lake.Attrs {
		tags := tc.Lake.AttrTags(a.ID)
		if len(tags) > 2 {
			t.Fatalf("attr %d has %d tags after enrich", a.ID, len(tags))
		}
		if len(tags) == 2 {
			twoTagged++
			if tags[0] == tags[1] {
				t.Fatalf("attr %d enriched with its own tag", a.ID)
			}
		}
	}
	if twoTagged != added {
		t.Errorf("added=%d but %d attrs have two tags", added, twoTagged)
	}
	if err := tc.Lake.Validate(); err != nil {
		t.Error(err)
	}
}
