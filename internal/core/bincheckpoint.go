package core

import (
	"fmt"
	"math"

	"lakenav/internal/binfmt"
)

// Checkpoint format (binfmt.KindCheckpoint), the only checkpoint
// encoding. Checkpoints are write-bound — every EveryAccepted boundary
// serializes the whole search — so the format packs the scalar state
// into one meta section and stores Current/Best as nested structural
// org containers (see binorg.go), skipping reflection and the topic
// blocks (Import re-derives them from the lake on resume).

// ckFormatVersion is the kindVer of checkpoint containers.
const ckFormatVersion = 1

// Section ids of a KindCheckpoint container.
const (
	secCkMeta     = 1
	secCkStrOffs  = 2
	secCkStrBytes = 3
	secCkTagRefs  = 4
	secCkCurrent  = 16
	secCkBest     = 17
)

// Meta word indices (secCkMeta is a packed []uint64; floats are
// Float64bits, signed ints are two's-complement uint64).
const (
	ckMetaVersion = iota
	ckMetaDim
	ckMetaFlags
	ckMetaIterations
	ckMetaAccepted
	ckMetaRejected
	ckMetaSinceImprove
	ckMetaPlateauRef
	ckMetaInitialEff
	ckMetaBestEff
	ckMetaRNGState
	ckMetaRepFraction
	ckMetaMaxIterations
	ckMetaWindow
	ckMetaMinRelImprovement
	ckMetaLeafProposals
	ckMetaAcceptExponent
	ckMetaSeed
	ckMetaCheckpointEvery
	ckMetaWords
)

// ckFlagHasBest marks a checkpoint whose Best differs from Current.
const ckFlagHasBest = 1

func encodeBinCheckpoint(ck *Checkpoint) (*binfmt.Writer, error) {
	meta := make([]uint64, ckMetaWords)
	meta[ckMetaVersion] = uint64(ck.Version)
	meta[ckMetaDim] = uint64(int64(ck.Dim))
	meta[ckMetaIterations] = uint64(int64(ck.Iterations))
	meta[ckMetaAccepted] = uint64(int64(ck.Accepted))
	meta[ckMetaRejected] = uint64(int64(ck.Rejected))
	meta[ckMetaSinceImprove] = uint64(int64(ck.SinceImprove))
	meta[ckMetaPlateauRef] = math.Float64bits(ck.PlateauRef)
	meta[ckMetaInitialEff] = math.Float64bits(ck.InitialEff)
	meta[ckMetaBestEff] = math.Float64bits(ck.BestEff)
	meta[ckMetaRNGState] = ck.RNGState
	meta[ckMetaRepFraction] = math.Float64bits(ck.Config.RepFraction)
	meta[ckMetaMaxIterations] = uint64(int64(ck.Config.MaxIterations))
	meta[ckMetaWindow] = uint64(int64(ck.Config.Window))
	meta[ckMetaMinRelImprovement] = math.Float64bits(ck.Config.MinRelImprovement)
	meta[ckMetaLeafProposals] = uint64(int64(ck.Config.LeafProposals))
	meta[ckMetaAcceptExponent] = math.Float64bits(ck.Config.AcceptExponent)
	meta[ckMetaSeed] = uint64(ck.Config.Seed)
	meta[ckMetaCheckpointEvery] = uint64(int64(ck.Config.CheckpointEvery))

	if ck.Current == nil {
		return nil, fmt.Errorf("core: binary checkpoint has no current organization")
	}
	cur, err := encodeBinExportedOrg(ck.Current)
	if err != nil {
		return nil, fmt.Errorf("core: binary checkpoint current org: %w", err)
	}
	curBlob, err := cur.Bytes()
	if err != nil {
		return nil, err
	}
	var bestBlob []byte
	if ck.Best != nil {
		meta[ckMetaFlags] |= ckFlagHasBest
		best, err := encodeBinExportedOrg(ck.Best)
		if err != nil {
			return nil, fmt.Errorf("core: binary checkpoint best org: %w", err)
		}
		if bestBlob, err = best.Bytes(); err != nil {
			return nil, err
		}
	}

	st := binfmt.NewStringTableBuilder()
	tagRefs := make([]uint32, len(ck.TagGroup))
	for i, t := range ck.TagGroup {
		tagRefs[i] = st.Ref(t)
	}

	w := binfmt.NewWriter(binfmt.KindCheckpoint, ckFormatVersion)
	w.AddUint64s(secCkMeta, meta)
	st.AddTo(w, secCkStrOffs, secCkStrBytes)
	w.AddUint32s(secCkTagRefs, tagRefs)
	w.Add(secCkCurrent, curBlob)
	if bestBlob != nil {
		w.Add(secCkBest, bestBlob)
	}
	return w, nil
}

// DecodeBinCheckpoint decodes a binary checkpoint. It never returns a
// checkpoint that fails validate(): resumable state is either
// structurally sound or rejected whole.
func DecodeBinCheckpoint(data []byte) (*Checkpoint, error) {
	c, err := binfmt.New(data)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	kind, ver := c.Kind()
	if kind != binfmt.KindCheckpoint {
		return nil, fmt.Errorf("core: checkpoint decode container kind %d, want %d", kind, binfmt.KindCheckpoint)
	}
	if ver != ckFormatVersion {
		return nil, fmt.Errorf("core: checkpoint decode format version %d, want %d", ver, ckFormatVersion)
	}
	meta, err := c.Uint64s(secCkMeta)
	if err != nil {
		return nil, err
	}
	if len(meta) != ckMetaWords {
		return nil, fmt.Errorf("core: checkpoint decode meta has %d words, want %d", len(meta), ckMetaWords)
	}
	if meta[ckMetaFlags]&^uint64(ckFlagHasBest) != 0 {
		return nil, fmt.Errorf("core: checkpoint decode unknown flags %#x", meta[ckMetaFlags])
	}
	ck := &Checkpoint{
		Version:      int(int64(meta[ckMetaVersion])),
		Dim:          int(int64(meta[ckMetaDim])),
		Iterations:   int(int64(meta[ckMetaIterations])),
		Accepted:     int(int64(meta[ckMetaAccepted])),
		Rejected:     int(int64(meta[ckMetaRejected])),
		SinceImprove: int(int64(meta[ckMetaSinceImprove])),
		PlateauRef:   math.Float64frombits(meta[ckMetaPlateauRef]),
		InitialEff:   math.Float64frombits(meta[ckMetaInitialEff]),
		BestEff:      math.Float64frombits(meta[ckMetaBestEff]),
		RNGState:     meta[ckMetaRNGState],
		Config: SearchConfig{
			RepFraction:       math.Float64frombits(meta[ckMetaRepFraction]),
			MaxIterations:     int(int64(meta[ckMetaMaxIterations])),
			Window:            int(int64(meta[ckMetaWindow])),
			MinRelImprovement: math.Float64frombits(meta[ckMetaMinRelImprovement]),
			LeafProposals:     int(int64(meta[ckMetaLeafProposals])),
			AcceptExponent:    math.Float64frombits(meta[ckMetaAcceptExponent]),
			Seed:              int64(meta[ckMetaSeed]),
			CheckpointEvery:   int(int64(meta[ckMetaCheckpointEvery])),
		},
	}

	strs, err := binfmt.ReadStringTable(c, secCkStrOffs, secCkStrBytes)
	if err != nil {
		return nil, err
	}
	tagRefs, err := c.Uint32s(secCkTagRefs)
	if err != nil {
		return nil, err
	}
	for _, r := range tagRefs {
		t, err := strs.Lookup(r)
		if err != nil {
			return nil, err
		}
		ck.TagGroup = append(ck.TagGroup, t)
	}

	decodeOrgBlob := func(sec uint32) (*ExportedOrg, error) {
		blob, err := c.Section(sec)
		if err != nil {
			return nil, err
		}
		return decodeBinExportedOrg(blob)
	}
	if ck.Current, err = decodeOrgBlob(secCkCurrent); err != nil {
		return nil, fmt.Errorf("core: checkpoint decode current org: %w", err)
	}
	if meta[ckMetaFlags]&ckFlagHasBest != 0 {
		if ck.Best, err = decodeOrgBlob(secCkBest); err != nil {
			return nil, fmt.Errorf("core: checkpoint decode best org: %w", err)
		}
	}
	if err := ck.validate(); err != nil {
		return nil, err
	}
	return ck, nil
}
