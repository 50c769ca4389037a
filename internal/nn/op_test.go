package nn

import (
	"testing"

	"clsacim/internal/region"
	"clsacim/internal/tensor"
)

func shape(h, w, c int) tensor.Shape { return tensor.NewShape(h, w, c) }

func TestSamePadding(t *testing.T) {
	cases := []struct {
		n, k, s               int
		wantBefore, wantAfter int
	}{
		{416, 3, 2, 0, 1}, // TinyYOLOv4 first conv: 417-row padded input
		{208, 3, 2, 0, 1},
		{104, 3, 1, 1, 1},
		{13, 2, 1, 0, 1}, // TinyYOLOv3 stride-1 pool
		{224, 3, 1, 1, 1},
		{5, 1, 1, 0, 0},
		{7, 7, 2, 3, 3},
		{224, 7, 2, 2, 3},
	}
	for _, c := range cases {
		b, a := SamePadding(c.n, c.k, c.s)
		if b != c.wantBefore || a != c.wantAfter {
			t.Errorf("SamePadding(%d,%d,%d) = (%d,%d), want (%d,%d)",
				c.n, c.k, c.s, b, a, c.wantBefore, c.wantAfter)
		}
		// TF "same" invariant: output extent is ceil(n/s).
		out := (c.n + b + a - c.k) / c.s
		if out+1 != (c.n+c.s-1)/c.s {
			t.Errorf("SamePadding(%d,%d,%d): out %d != ceil(n/s) %d", c.n, c.k, c.s, out+1, (c.n+c.s-1)/c.s)
		}
	}
}

func TestConv2DInferShape(t *testing.T) {
	op := &Conv2D{KH: 3, KW: 3, SH: 2, SW: 2, KI: 3, KO: 32, Pad: Padding{0, 1, 0, 1}}
	out, err := op.InferShape([]tensor.Shape{shape(416, 416, 3)})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Equal(shape(208, 208, 32)) {
		t.Errorf("out = %v, want (208, 208, 32)", out)
	}
	if _, err := op.InferShape([]tensor.Shape{shape(416, 416, 4)}); err == nil {
		t.Error("channel mismatch accepted")
	}
	if _, err := op.InferShape(nil); err == nil {
		t.Error("missing input accepted")
	}
	bad := &Conv2D{KH: 5, KW: 5, SH: 1, SW: 1, KI: 1, KO: 1}
	if _, err := bad.InferShape([]tensor.Shape{shape(3, 3, 1)}); err == nil {
		t.Error("kernel larger than input accepted")
	}
	withW := &Conv2D{KH: 3, KW: 3, SH: 1, SW: 1, KI: 2, KO: 4, W: NewConvWeights(3, 3, 2, 5)}
	if _, err := withW.InferShape([]tensor.Shape{shape(8, 8, 2)}); err == nil {
		t.Error("weight dim mismatch accepted")
	}
	badBias := &Conv2D{KH: 1, KW: 1, SH: 1, SW: 1, KI: 2, KO: 4, Bias: make([]float32, 3)}
	if _, err := badBias.InferShape([]tensor.Shape{shape(8, 8, 2)}); err == nil {
		t.Error("bias length mismatch accepted")
	}
}

func TestDenseInferShape(t *testing.T) {
	op := &Dense{KI: 10, KO: 4}
	out, err := op.InferShape([]tensor.Shape{shape(1, 1, 10)})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Equal(shape(1, 1, 4)) {
		t.Errorf("out = %v", out)
	}
	if _, err := op.InferShape([]tensor.Shape{shape(2, 1, 5)}); err == nil {
		t.Error("non-flattened input accepted")
	}
}

func TestPoolInferShape(t *testing.T) {
	mp := &MaxPool{KH: 2, KW: 2, SH: 2, SW: 2}
	out, err := mp.InferShape([]tensor.Shape{shape(8, 8, 16)})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Equal(shape(4, 4, 16)) {
		t.Errorf("maxpool out = %v", out)
	}
	mp1 := &MaxPool{KH: 2, KW: 2, SH: 1, SW: 1, Pad: Padding{0, 1, 0, 1}}
	out, err = mp1.InferShape([]tensor.Shape{shape(13, 13, 512)})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Equal(shape(13, 13, 512)) {
		t.Errorf("stride-1 same pool out = %v", out)
	}
	gap := &AvgPool{Global: true}
	out, err = gap.InferShape([]tensor.Shape{shape(7, 7, 2048)})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Equal(shape(1, 1, 2048)) {
		t.Errorf("gap out = %v", out)
	}
}

func TestConcatInferShape(t *testing.T) {
	c := &Concat{Axis: AxisC}
	out, err := c.InferShape([]tensor.Shape{shape(13, 13, 128), shape(13, 13, 256)})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Equal(shape(13, 13, 384)) {
		t.Errorf("concat C out = %v", out)
	}
	h := &Concat{Axis: AxisH}
	out, err = h.InferShape([]tensor.Shape{shape(3, 8, 4), shape(5, 8, 4)})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Equal(shape(8, 8, 4)) {
		t.Errorf("concat H out = %v", out)
	}
	if _, err := c.InferShape([]tensor.Shape{shape(13, 13, 128), shape(12, 13, 1)}); err == nil {
		t.Error("mismatched concat accepted")
	}
	if _, err := c.InferShape([]tensor.Shape{shape(1, 1, 1)}); err == nil {
		t.Error("single-input concat accepted")
	}
}

func TestMiscInferShapes(t *testing.T) {
	if _, err := (&Add{}).InferShape([]tensor.Shape{shape(4, 4, 8), shape(4, 4, 9)}); err == nil {
		t.Error("Add shape mismatch accepted")
	}
	out, err := (&UpSample{Factor: 2}).InferShape([]tensor.Shape{shape(13, 13, 128)})
	if err != nil || !out.Equal(shape(26, 26, 128)) {
		t.Errorf("upsample out = %v err %v", out, err)
	}
	if _, err := (&UpSample{Factor: 0}).InferShape([]tensor.Shape{shape(4, 4, 1)}); err == nil {
		t.Error("factor 0 accepted")
	}
	out, err = (&Slice{Box: region.NewBox(1, 3, 0, 4, 2, 4)}).InferShape([]tensor.Shape{shape(4, 4, 4)})
	if err != nil || !out.Equal(shape(2, 4, 2)) {
		t.Errorf("slice out = %v err %v", out, err)
	}
	if _, err := (&Slice{Box: region.NewBox(0, 5, 0, 4, 0, 4)}).InferShape([]tensor.Shape{shape(4, 4, 4)}); err == nil {
		t.Error("out-of-bounds slice accepted")
	}
	out, err = (&Flatten{}).InferShape([]tensor.Shape{shape(2, 3, 4)})
	if err != nil || !out.Equal(shape(1, 1, 24)) {
		t.Errorf("flatten out = %v err %v", out, err)
	}
	out, err = (&Pad{Pad: Padding{1, 2, 3, 4}}).InferShape([]tensor.Shape{shape(4, 4, 2)})
	if err != nil || !out.Equal(shape(7, 11, 2)) {
		t.Errorf("pad out = %v err %v", out, err)
	}
	if _, err := (&Pad{Pad: Padding{-1, 0, 0, 0}}).InferShape([]tensor.Shape{shape(4, 4, 2)}); err == nil {
		t.Error("negative pad accepted")
	}
	if _, err := (&BatchNorm{Gamma: make([]float32, 3)}).InferShape([]tensor.Shape{shape(2, 2, 4)}); err == nil {
		t.Error("BN param length mismatch accepted")
	}
	if _, err := (&BiasAdd{B: make([]float32, 3)}).InferShape([]tensor.Shape{shape(2, 2, 4)}); err == nil {
		t.Error("bias length mismatch accepted")
	}
}

func TestIsBase(t *testing.T) {
	if !IsBase(&Conv2D{}) || !IsBase(&DepthwiseConv2D{}) || !IsBase(&Dense{}) {
		t.Error("Conv2D/DepthwiseConv2D/Dense must be base layers")
	}
	for _, op := range []Op{&MaxPool{}, &Pad{}, &Concat{}, &Add{}, &UpSample{}, &Slice{},
		&Flatten{}, &BatchNorm{}, &BiasAdd{}, &Activation{}, &AvgPool{}, &Input{}} {
		if IsBase(op) {
			t.Errorf("%v misclassified as base", op.Kind())
		}
	}
	// IsBase enumerates the implementers of the sealed BaseOp interface;
	// the assertion itself is the oracle.
	for _, op := range []Op{&Conv2D{}, &DepthwiseConv2D{}, &Dense{}, &MaxPool{}, &Pad{}, &Concat{},
		&Add{}, &UpSample{}, &Slice{}, &Flatten{}, &BatchNorm{}, &BiasAdd{}, &Activation{},
		&AvgPool{}, &Input{}} {
		if _, ok := op.(BaseOp); IsBase(op) != ok {
			t.Errorf("IsBase(%v) = %v, BaseOp assertion says %v", op.Kind(), IsBase(op), ok)
		}
	}
}

func TestOpKindString(t *testing.T) {
	if OpConv2D.String() != "Conv2D" || OpInput.String() != "Input" {
		t.Error("OpKind names wrong")
	}
	if OpKind(99).String() != "OpKind(99)" {
		t.Error("unknown kind string wrong")
	}
	if AxisH.String() != "H" || AxisC.String() != "C" {
		t.Error("axis names wrong")
	}
	if ActLeakyReLU.String() != "leaky" {
		t.Error("activation names wrong")
	}
}
