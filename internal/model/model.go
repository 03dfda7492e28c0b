package model

import "fmt"

// Model is an ordered sequence of layers plus the input geometry fed to
// the first layer.
type Model struct {
	// Name identifies the architecture, e.g. "VGG19".
	Name string
	// InputC, InputH, InputW describe one input sample.
	InputC, InputH, InputW int
	// Layers in forward order; includes parameter-free layers.
	Layers []Layer
}

// InputElems is the element count of one input sample.
func (m *Model) InputElems() int64 {
	return int64(m.InputC) * int64(m.InputH) * int64(m.InputW)
}

// SampleBytes is the byte size of one input sample.
func (m *Model) SampleBytes() int64 { return m.InputElems() * BytesPerElement }

// Params is the total trainable parameter count.
func (m *Model) Params() int64 {
	var n int64
	for _, l := range m.Layers {
		n += l.Params
	}
	return n
}

// ParamBytes is the total parameter footprint in bytes.
func (m *Model) ParamBytes() int64 { return m.Params() * BytesPerElement }

// FwdFLOPs is the per-sample forward cost of the whole model.
func (m *Model) FwdFLOPs() int64 {
	var n int64
	for _, l := range m.Layers {
		n += l.FwdFLOPs
	}
	return n
}

// WeightLayers returns the layers that carry parameters, in order. The
// paper's "layer numbers" (Table I, Fig. 5) count exactly these.
func (m *Model) WeightLayers() []Layer {
	out := make([]Layer, 0, len(m.Layers))
	for _, l := range m.Layers {
		if l.HasWeights() {
			out = append(out, l)
		}
	}
	return out
}

// WeightLayerCount is len(WeightLayers()).
func (m *Model) WeightLayerCount() int { return len(m.WeightLayers()) }

// LayerRange returns the contiguous slice of all layers (including
// parameter-free ones) spanning weight layers [from, to], 1-indexed
// inclusive, mirroring the paper's "Layer 1~8" notation. Parameter-free
// layers between the two endpoints are included; leading/trailing pools
// attach to the sub-model that precedes them.
func (m *Model) LayerRange(from, to int) []Layer {
	if from < 1 || to < from {
		panic(fmt.Sprintf("model: bad weight-layer range [%d,%d]", from, to))
	}
	start, end := -1, -1
	idx := 0
	for i, l := range m.Layers {
		if !l.HasWeights() {
			continue
		}
		idx++
		if idx == from {
			start = i
		}
		if idx == to {
			end = i
		}
	}
	if start < 0 || end < 0 {
		panic(fmt.Sprintf("model: weight-layer range [%d,%d] out of bounds (model has %d)", from, to, idx))
	}
	// Attach trailing parameter-free layers (pools) to this range.
	for end+1 < len(m.Layers) && !m.Layers[end+1].HasWeights() {
		end++
	}
	return m.Layers[start : end+1]
}

// Validate checks internal consistency: activation sizes must chain
// (each layer's InElems equals the previous layer's OutElems).
func (m *Model) Validate() error {
	if len(m.Layers) == 0 {
		return fmt.Errorf("model %s: no layers", m.Name)
	}
	prev := m.InputElems()
	for i, l := range m.Layers {
		if l.InElems != prev {
			return fmt.Errorf("model %s: layer %d (%s) expects %d input elems, previous produces %d",
				m.Name, i, l.Name, l.InElems, prev)
		}
		prev = l.OutElems
	}
	seen := make(map[string]bool, len(m.Layers))
	for _, l := range m.Layers {
		if seen[l.Name] {
			return fmt.Errorf("model %s: duplicate layer name %q", m.Name, l.Name)
		}
		seen[l.Name] = true
	}
	return nil
}

// SubModel is a contiguous slice of a model, the unit a token trains.
type SubModel struct {
	// Index is the 0-based sub-model position (SM-1 has Index 0).
	Index int
	// Name is a human-readable identifier such as "VGG19/SM-1[L1-8]".
	Name string
	// Layers are the layers of this sub-model in forward order.
	Layers []Layer
	// FromLayer and ToLayer are the 1-indexed weight-layer bounds.
	FromLayer, ToLayer int
	// ThresholdBatch is the batch size at which the slowest-saturating
	// layer of this sub-model saturates the GPU (§IV-A).
	ThresholdBatch int
}

// Params is the total parameter count of the sub-model.
func (sm *SubModel) Params() int64 {
	var n int64
	for _, l := range sm.Layers {
		n += l.Params
	}
	return n
}

// ParamBytes is the parameter footprint in bytes.
func (sm *SubModel) ParamBytes() int64 { return sm.Params() * BytesPerElement }

// InBytes is the per-sample input activation size in bytes: what must be
// fetched from the producer of the previous sub-model's output.
func (sm *SubModel) InBytes() int64 {
	if len(sm.Layers) == 0 {
		return 0
	}
	return sm.Layers[0].InElems * BytesPerElement
}

// OutBytes is the per-sample output activation size in bytes.
func (sm *SubModel) OutBytes() int64 {
	if len(sm.Layers) == 0 {
		return 0
	}
	return sm.Layers[len(sm.Layers)-1].OutElems * BytesPerElement
}

// CommIntensive reports whether the sub-model contains any
// communication-intensive (FC) layer; CTD applies to these (§III-F).
func (sm *SubModel) CommIntensive() bool {
	for _, l := range sm.Layers {
		if l.CommIntensive {
			return true
		}
	}
	return false
}
