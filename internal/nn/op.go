// Package nn implements the neural-network intermediate representation
// consumed by the CLSA-CIM compiler stack: a directed acyclic graph of
// operators with HWC shape inference, plus a reference CPU executor used
// to verify that compiler transformations (BN folding, partitioning,
// weight duplication) preserve inference results.
//
// The operator set mirrors what the paper's TensorFlow frontend produces
// after export: convolutions and dense layers (the future "base layers"),
// and the non-base layers executed on a tile's general-purpose execution
// unit (GPEU): padding, bias addition, activations, pooling,
// concatenation, residual addition, nearest-neighbour upsampling, and
// slicing (used by the weight-duplication rewrite).
package nn

import (
	"fmt"

	"clsacim/internal/region"
	"clsacim/internal/tensor"
)

// OpKind enumerates operator categories.
type OpKind int

// Operator kinds. OpConv2D and OpDense are base layers (executed on PEs);
// everything else is a non-base layer (executed on the GPEU) or the graph
// input.
const (
	OpInput OpKind = iota
	OpConv2D
	OpDense
	OpBatchNorm
	OpBiasAdd
	OpActivation
	OpMaxPool
	OpAvgPool
	OpPad
	OpConcat
	OpAdd
	OpUpSample
	OpSlice
	OpFlatten
	OpDepthwise
)

var opKindNames = map[OpKind]string{
	OpInput:      "Input",
	OpConv2D:     "Conv2D",
	OpDense:      "Dense",
	OpBatchNorm:  "BatchNorm",
	OpBiasAdd:    "BiasAdd",
	OpActivation: "Activation",
	OpMaxPool:    "MaxPool",
	OpAvgPool:    "AvgPool",
	OpPad:        "Pad",
	OpConcat:     "Concat",
	OpAdd:        "Add",
	OpUpSample:   "UpSample",
	OpSlice:      "Slice",
	OpFlatten:    "Flatten",
	OpDepthwise:  "DepthwiseConv2D",
}

// String returns the operator kind name.
func (k OpKind) String() string {
	if n, ok := opKindNames[k]; ok {
		return n
	}
	return fmt.Sprintf("OpKind(%d)", int(k))
}

// Op is the interface implemented by every operator. InferShape validates
// input shapes and computes the output shape.
type Op interface {
	Kind() OpKind
	InferShape(in []tensor.Shape) (tensor.Shape, error)
}

// BaseOp marks operators that execute on processing elements (crossbars)
// and therefore count as base layers in the paper's partitioning.
type BaseOp interface {
	Op
	isBase()
}

// Axis identifies a tensor dimension for Concat.
type Axis int

// Concatenation axes in HWC order.
const (
	AxisH Axis = iota
	AxisW
	AxisC
)

// String returns "H", "W", or "C".
func (a Axis) String() string { return [...]string{"H", "W", "C"}[a] }

// ActFunc enumerates pointwise activation functions.
type ActFunc int

// Supported activations. ActLinear is the identity (used when folding
// removes a nonlinearity placeholder).
const (
	ActLinear ActFunc = iota
	ActReLU
	ActLeakyReLU
)

// String returns the activation name.
func (f ActFunc) String() string {
	return [...]string{"linear", "relu", "leaky"}[f]
}

// Padding describes explicit spatial zero-padding amounts.
type Padding struct {
	Top, Bottom, Left, Right int
}

// Any reports whether any side has non-zero padding.
func (p Padding) Any() bool { return p.Top != 0 || p.Bottom != 0 || p.Left != 0 || p.Right != 0 }

// SamePadding computes TensorFlow-style "same" padding for a window of
// size k moving with stride s over extent n: total padding such that the
// output extent is ceil(n/s), with the extra odd element on the
// bottom/right (TF convention).
func SamePadding(n, k, s int) (before, after int) {
	out := (n + s - 1) / s
	total := (out-1)*s + k - n
	if total < 0 {
		total = 0
	}
	return total / 2, total - total/2
}

// windowOut returns the output extent of a window op: floor((n + pad - k)/s) + 1.
func windowOut(n, k, s, padBefore, padAfter int) (int, error) {
	eff := n + padBefore + padAfter
	if k <= 0 || s <= 0 {
		return 0, fmt.Errorf("nn: invalid window k=%d s=%d", k, s)
	}
	if eff < k {
		return 0, fmt.Errorf("nn: window %d larger than padded extent %d", k, eff)
	}
	return (eff-k)/s + 1, nil
}

func wantInputs(in []tensor.Shape, n int, kind OpKind) error {
	if len(in) != n {
		return fmt.Errorf("nn: %v expects %d input(s), got %d", kind, n, len(in))
	}
	return nil
}

// Input is the graph entry point carrying the network input shape.
type Input struct {
	Shape tensor.Shape
}

// Kind returns OpInput.
func (o *Input) Kind() OpKind { return OpInput }

// InferShape returns the declared input shape.
func (o *Input) InferShape(in []tensor.Shape) (tensor.Shape, error) {
	if err := wantInputs(in, 0, OpInput); err != nil {
		return tensor.Shape{}, err
	}
	if !o.Shape.Valid() {
		return tensor.Shape{}, fmt.Errorf("nn: invalid input shape %v", o.Shape)
	}
	return o.Shape, nil
}

// Conv2D is a 2-D convolution, the primary base layer. Before the
// partitioning pass it may carry embedded padding (Pad) and a bias
// vector; the pass decouples both into separate non-base nodes, yielding
// the canonical representation of paper Fig. 2.
type Conv2D struct {
	KH, KW int // kernel height and width
	SH, SW int // strides
	Pad    Padding
	W      *ConvWeights // kernel tensor (KH, KW, KI, KO); may be nil for shape-only graphs
	Bias   []float32    // per-output-channel bias, nil if none
	// KI and KO are the input/output channel counts. They are
	// authoritative even when W is nil so that shape-only model
	// definitions can be compiled and scheduled without weight data.
	KI, KO int
}

// Kind returns OpConv2D.
func (o *Conv2D) Kind() OpKind { return OpConv2D }

func (o *Conv2D) isBase() {}

// InferShape computes the convolution output shape.
func (o *Conv2D) InferShape(in []tensor.Shape) (tensor.Shape, error) {
	if err := wantInputs(in, 1, OpConv2D); err != nil {
		return tensor.Shape{}, err
	}
	s := in[0]
	if s.C != o.KI {
		return tensor.Shape{}, fmt.Errorf("nn: Conv2D expects %d input channels, got %d", o.KI, s.C)
	}
	if o.W != nil {
		if o.W.KH != o.KH || o.W.KW != o.KW || o.W.KI != o.KI || o.W.KO != o.KO {
			return tensor.Shape{}, fmt.Errorf("nn: Conv2D weight dims (%d,%d,%d,%d) mismatch attrs (%d,%d,%d,%d)",
				o.W.KH, o.W.KW, o.W.KI, o.W.KO, o.KH, o.KW, o.KI, o.KO)
		}
	}
	if o.Bias != nil && len(o.Bias) != o.KO {
		return tensor.Shape{}, fmt.Errorf("nn: Conv2D bias length %d != KO %d", len(o.Bias), o.KO)
	}
	oh, err := windowOut(s.H, o.KH, o.SH, o.Pad.Top, o.Pad.Bottom)
	if err != nil {
		return tensor.Shape{}, err
	}
	ow, err := windowOut(s.W, o.KW, o.SW, o.Pad.Left, o.Pad.Right)
	if err != nil {
		return tensor.Shape{}, err
	}
	return tensor.NewShape(oh, ow, o.KO), nil
}

// DepthwiseConv2D is a depthwise convolution (depth multiplier 1): each
// channel is filtered independently with its own KH x KW kernel. It is a
// base layer: the kernel matrix is block-diagonal, and multiple channels
// pack onto one crossbar on disjoint rows and columns (the
// shifted/duplicated-kernel packing of the paper's reference [14],
// VWC-SDK). MobileNet-style separable convolutions need it; the paper's
// own benchmarks do not, so this operator is an extension.
type DepthwiseConv2D struct {
	KH, KW int
	SH, SW int
	Pad    Padding
	// C is the channel count (input == output).
	C int
	// W has layout (KH, KW, C, 1): one kernel per channel.
	W    *ConvWeights
	Bias []float32
}

// Kind returns OpDepthwise.
func (o *DepthwiseConv2D) Kind() OpKind { return OpDepthwise }

func (o *DepthwiseConv2D) isBase() {}

// InferShape computes the depthwise output shape.
func (o *DepthwiseConv2D) InferShape(in []tensor.Shape) (tensor.Shape, error) {
	if err := wantInputs(in, 1, OpDepthwise); err != nil {
		return tensor.Shape{}, err
	}
	s := in[0]
	if s.C != o.C {
		return tensor.Shape{}, fmt.Errorf("nn: DepthwiseConv2D expects %d channels, got %d", o.C, s.C)
	}
	if o.W != nil && (o.W.KH != o.KH || o.W.KW != o.KW || o.W.KI != o.C || o.W.KO != 1) {
		return tensor.Shape{}, fmt.Errorf("nn: DepthwiseConv2D weight dims (%d,%d,%d,%d), want (%d,%d,%d,1)",
			o.W.KH, o.W.KW, o.W.KI, o.W.KO, o.KH, o.KW, o.C)
	}
	if o.Bias != nil && len(o.Bias) != o.C {
		return tensor.Shape{}, fmt.Errorf("nn: DepthwiseConv2D bias length %d != C %d", len(o.Bias), o.C)
	}
	oh, err := windowOut(s.H, o.KH, o.SH, o.Pad.Top, o.Pad.Bottom)
	if err != nil {
		return tensor.Shape{}, err
	}
	ow, err := windowOut(s.W, o.KW, o.SW, o.Pad.Left, o.Pad.Right)
	if err != nil {
		return tensor.Shape{}, err
	}
	return tensor.NewShape(oh, ow, o.C), nil
}

// Dense is a fully connected layer over a flattened (1, 1, KI) input; a
// base layer executed as a single-column GEMM on the PEs.
type Dense struct {
	W    *ConvWeights // 1x1 kernel layout (1, 1, KI, KO); may be nil
	Bias []float32
	KI   int
	KO   int
}

// Kind returns OpDense.
func (o *Dense) Kind() OpKind { return OpDense }

func (o *Dense) isBase() {}

// InferShape validates the flattened input and returns (1, 1, KO).
func (o *Dense) InferShape(in []tensor.Shape) (tensor.Shape, error) {
	if err := wantInputs(in, 1, OpDense); err != nil {
		return tensor.Shape{}, err
	}
	s := in[0]
	if s.H != 1 || s.W != 1 {
		return tensor.Shape{}, fmt.Errorf("nn: Dense requires (1,1,C) input, got %v (flatten first)", s)
	}
	if s.C != o.KI {
		return tensor.Shape{}, fmt.Errorf("nn: Dense expects %d inputs, got %d", o.KI, s.C)
	}
	if o.W != nil && (o.W.KH != 1 || o.W.KW != 1 || o.W.KI != o.KI || o.W.KO != o.KO) {
		return tensor.Shape{}, fmt.Errorf("nn: Dense weight dims mismatch")
	}
	return tensor.NewShape(1, 1, o.KO), nil
}

// BatchNorm is inference-mode batch normalization with per-channel
// parameters. The BN-folding pass removes it by adjusting the preceding
// base layer's weights and bias (paper §III-A).
type BatchNorm struct {
	Gamma, Beta, Mean, Var []float32
	Eps                    float32
}

// Kind returns OpBatchNorm.
func (o *BatchNorm) Kind() OpKind { return OpBatchNorm }

// InferShape validates parameter lengths against the channel count.
func (o *BatchNorm) InferShape(in []tensor.Shape) (tensor.Shape, error) {
	if err := wantInputs(in, 1, OpBatchNorm); err != nil {
		return tensor.Shape{}, err
	}
	c := in[0].C
	for _, p := range [][]float32{o.Gamma, o.Beta, o.Mean, o.Var} {
		if len(p) != c {
			return tensor.Shape{}, fmt.Errorf("nn: BatchNorm parameter length %d != channels %d", len(p), c)
		}
	}
	return in[0], nil
}

// BiasAdd adds a per-channel bias vector; produced by the partitioning
// pass when it decouples the bias from a base layer.
type BiasAdd struct {
	B []float32
}

// Kind returns OpBiasAdd.
func (o *BiasAdd) Kind() OpKind { return OpBiasAdd }

// InferShape validates the bias length.
func (o *BiasAdd) InferShape(in []tensor.Shape) (tensor.Shape, error) {
	if err := wantInputs(in, 1, OpBiasAdd); err != nil {
		return tensor.Shape{}, err
	}
	if len(o.B) != in[0].C {
		return tensor.Shape{}, fmt.Errorf("nn: BiasAdd length %d != channels %d", len(o.B), in[0].C)
	}
	return in[0], nil
}

// Activation applies a pointwise nonlinearity.
type Activation struct {
	Func  ActFunc
	Alpha float32 // negative-slope for LeakyReLU
}

// Kind returns OpActivation.
func (o *Activation) Kind() OpKind { return OpActivation }

// InferShape passes the input shape through.
func (o *Activation) InferShape(in []tensor.Shape) (tensor.Shape, error) {
	if err := wantInputs(in, 1, OpActivation); err != nil {
		return tensor.Shape{}, err
	}
	return in[0], nil
}

// MaxPool is spatial max pooling (GPEU-executed non-base layer).
type MaxPool struct {
	KH, KW int
	SH, SW int
	Pad    Padding
}

// Kind returns OpMaxPool.
func (o *MaxPool) Kind() OpKind { return OpMaxPool }

// InferShape computes the pooled output shape.
func (o *MaxPool) InferShape(in []tensor.Shape) (tensor.Shape, error) {
	if err := wantInputs(in, 1, OpMaxPool); err != nil {
		return tensor.Shape{}, err
	}
	s := in[0]
	oh, err := windowOut(s.H, o.KH, o.SH, o.Pad.Top, o.Pad.Bottom)
	if err != nil {
		return tensor.Shape{}, err
	}
	ow, err := windowOut(s.W, o.KW, o.SW, o.Pad.Left, o.Pad.Right)
	if err != nil {
		return tensor.Shape{}, err
	}
	return tensor.NewShape(oh, ow, s.C), nil
}

// AvgPool is spatial average pooling. Global pools the full spatial
// extent to (1, 1, C) regardless of the kernel fields.
type AvgPool struct {
	Global bool
	KH, KW int
	SH, SW int
}

// Kind returns OpAvgPool.
func (o *AvgPool) Kind() OpKind { return OpAvgPool }

// InferShape computes the pooled output shape.
func (o *AvgPool) InferShape(in []tensor.Shape) (tensor.Shape, error) {
	if err := wantInputs(in, 1, OpAvgPool); err != nil {
		return tensor.Shape{}, err
	}
	s := in[0]
	if o.Global {
		return tensor.NewShape(1, 1, s.C), nil
	}
	oh, err := windowOut(s.H, o.KH, o.SH, 0, 0)
	if err != nil {
		return tensor.Shape{}, err
	}
	ow, err := windowOut(s.W, o.KW, o.SW, 0, 0)
	if err != nil {
		return tensor.Shape{}, err
	}
	return tensor.NewShape(oh, ow, s.C), nil
}

// Pad zero-pads the spatial dimensions; produced by the partitioning pass
// when it decouples padding from a base layer (paper Fig. 2).
type Pad struct {
	Pad   Padding
	Value float32
}

// Kind returns OpPad.
func (o *Pad) Kind() OpKind { return OpPad }

// InferShape adds the padding amounts to the spatial extents.
func (o *Pad) InferShape(in []tensor.Shape) (tensor.Shape, error) {
	if err := wantInputs(in, 1, OpPad); err != nil {
		return tensor.Shape{}, err
	}
	s := in[0]
	if o.Pad.Top < 0 || o.Pad.Bottom < 0 || o.Pad.Left < 0 || o.Pad.Right < 0 {
		return tensor.Shape{}, fmt.Errorf("nn: negative padding %+v", o.Pad)
	}
	return tensor.NewShape(s.H+o.Pad.Top+o.Pad.Bottom, s.W+o.Pad.Left+o.Pad.Right, s.C), nil
}

// Concat concatenates its inputs along one axis. YOLO route layers use
// AxisC; the weight-duplication rewrite uses AxisH/AxisW concat trees.
type Concat struct {
	Axis Axis
}

// Kind returns OpConcat.
func (o *Concat) Kind() OpKind { return OpConcat }

// InferShape sums the concatenation axis and validates the others.
func (o *Concat) InferShape(in []tensor.Shape) (tensor.Shape, error) {
	if len(in) < 2 {
		return tensor.Shape{}, fmt.Errorf("nn: Concat needs >= 2 inputs, got %d", len(in))
	}
	out := in[0]
	for _, s := range in[1:] {
		switch o.Axis {
		case AxisH:
			if s.W != out.W || s.C != out.C {
				return tensor.Shape{}, fmt.Errorf("nn: Concat(H) mismatched shapes %v vs %v", out, s)
			}
			out.H += s.H
		case AxisW:
			if s.H != out.H || s.C != out.C {
				return tensor.Shape{}, fmt.Errorf("nn: Concat(W) mismatched shapes %v vs %v", out, s)
			}
			out.W += s.W
		case AxisC:
			if s.H != out.H || s.W != out.W {
				return tensor.Shape{}, fmt.Errorf("nn: Concat(C) mismatched shapes %v vs %v", out, s)
			}
			out.C += s.C
		default:
			return tensor.Shape{}, fmt.Errorf("nn: Concat invalid axis %d", o.Axis)
		}
	}
	return out, nil
}

// Add is elementwise addition of two equal-shaped tensors (ResNet
// residual connections).
type Add struct{}

// Kind returns OpAdd.
func (o *Add) Kind() OpKind { return OpAdd }

// InferShape validates equal input shapes.
func (o *Add) InferShape(in []tensor.Shape) (tensor.Shape, error) {
	if err := wantInputs(in, 2, OpAdd); err != nil {
		return tensor.Shape{}, err
	}
	if !in[0].Equal(in[1]) {
		return tensor.Shape{}, fmt.Errorf("nn: Add shape mismatch %v vs %v", in[0], in[1])
	}
	return in[0], nil
}

// UpSample is nearest-neighbour spatial upsampling by an integer factor
// (YOLO feature-pyramid path).
type UpSample struct {
	Factor int
}

// Kind returns OpUpSample.
func (o *UpSample) Kind() OpKind { return OpUpSample }

// InferShape multiplies the spatial extents by the factor.
func (o *UpSample) InferShape(in []tensor.Shape) (tensor.Shape, error) {
	if err := wantInputs(in, 1, OpUpSample); err != nil {
		return tensor.Shape{}, err
	}
	if o.Factor < 1 {
		return tensor.Shape{}, fmt.Errorf("nn: UpSample factor %d < 1", o.Factor)
	}
	s := in[0]
	return tensor.NewShape(s.H*o.Factor, s.W*o.Factor, s.C), nil
}

// Slice extracts a box from its input. The weight-duplication rewrite
// (paper Fig. 4, tf.slice) uses it to hand each duplicate its overlapping
// share of the IFM. YOLO's channel-split route layers also use it.
type Slice struct {
	Box region.Box
}

// Kind returns OpSlice.
func (o *Slice) Kind() OpKind { return OpSlice }

// InferShape validates the box against the input volume.
func (o *Slice) InferShape(in []tensor.Shape) (tensor.Shape, error) {
	if err := wantInputs(in, 1, OpSlice); err != nil {
		return tensor.Shape{}, err
	}
	s := in[0]
	full := region.Full(s.H, s.W, s.C)
	if o.Box.Empty() || !full.ContainsBox(o.Box) {
		return tensor.Shape{}, fmt.Errorf("nn: Slice box %v outside input %v", o.Box, s)
	}
	return tensor.NewShape(o.Box.DH(), o.Box.DW(), o.Box.DC()), nil
}

// Flatten reshapes (H, W, C) to (1, 1, H*W*C) ahead of a Dense layer.
type Flatten struct{}

// Kind returns OpFlatten.
func (o *Flatten) Kind() OpKind { return OpFlatten }

// InferShape returns the flattened shape.
func (o *Flatten) InferShape(in []tensor.Shape) (tensor.Shape, error) {
	if err := wantInputs(in, 1, OpFlatten); err != nil {
		return tensor.Shape{}, err
	}
	return tensor.NewShape(1, 1, in[0].Elems()), nil
}

// IsBase reports whether op executes on processing elements (Conv2D or
// Dense), i.e. is a base layer in the paper's partitioning (§III-A).
// BaseOp is sealed (its marker method is unexported), so its
// implementers are exactly the cases below; a type switch over them
// is cheaper than the interface assertion, which every inlined call
// site backs with its own runtime type cache.
func IsBase(op Op) bool {
	switch op.(type) {
	case *Conv2D, *DepthwiseConv2D, *Dense:
		return true
	}
	return false
}
