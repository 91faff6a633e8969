package simcv

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"freepart.dev/freepart/internal/framework"
	"freepart.dev/freepart/internal/kernel"
	"freepart.dev/freepart/internal/mem"
	"freepart.dev/freepart/internal/object"
)

// The kernels below read each tensor operand with one checked load of its
// region. Their checked writes must stay one store per element, in the
// order of the element-wise loops they replaced: the chaos engine draws one
// PRNG sample per checked agent write, so batching a write would shift
// every later fault. Each case keeps the old element-wise implementation
// as the reference and compares outputs and the ordered write accesses.

// kernelCase is one rewritten kernel with fixed inputs and its old
// element-wise implementation.
type kernelCase struct {
	api  string
	args func(t *testing.T, ctx *framework.Ctx) []framework.Value
	// ref returns the element-wise implementation; api is the API being
	// run, for the exploit check.
	ref func(api *framework.API) framework.Impl
}

// access is one checked write: its address and length.
type access struct {
	addr mem.Addr
	n    int
}

// kernelRun is what one run of a kernel leaves behind.
type kernelRun struct {
	writes []access
	state  []string // results, arguments and files, rendered
	now    string   // virtual clock after the call
}

// runKernel runs impl on the case's inputs in a fresh process whose space
// records every checked write made during the call.
func runKernel(t *testing.T, c kernelCase, impl func(api *framework.API) framework.Impl) kernelRun {
	t.Helper()
	k := kernel.New()
	p := k.Spawn("agent")
	ctx := framework.NewCtx(k, p)
	args := c.args(t, ctx)
	api := *Registry().MustGet(c.api)
	api.Impl = impl(&api)
	var run kernelRun
	p.Space().SetAccessHook(func(addr mem.Addr, n int, kind mem.AccessKind) error {
		if kind == mem.AccessWrite {
			run.writes = append(run.writes, access{addr, n})
		}
		return nil
	})
	out, err := api.Exec(ctx, args)
	p.Space().SetAccessHook(nil)
	if err != nil {
		t.Fatalf("%s: %v", c.api, err)
	}
	run.now = k.Clock.Now().String()
	for _, v := range append(out, args...) {
		s := fmt.Sprintf("%+v", v)
		if v.Kind == framework.ValObj {
			o, err := ctx.Obj(v)
			if err != nil {
				t.Fatal(err)
			}
			b, err := object.PayloadBytes(o)
			if err != nil {
				t.Fatal(err)
			}
			s += fmt.Sprintf(" %v %x", o, b)
		}
		run.state = append(run.state, s)
	}
	for _, path := range k.FS.List("") {
		b, err := k.FS.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		run.state = append(run.state, fmt.Sprintf("%s %x", path, b))
	}
	return run
}

func TestKernelWritesMatchElementWiseReference(t *testing.T) {
	for _, c := range kernelCases {
		t.Run(c.api, func(t *testing.T) {
			got := runKernel(t, c, func(*framework.API) framework.Impl { return Registry().MustGet(c.api).Impl })
			want := runKernel(t, c, c.ref)
			if !slices.Equal(got.writes, want.writes) {
				t.Errorf("write accesses differ from the element-wise reference:\n got %v\nwant %v", got.writes, want.writes)
			}
			if !slices.Equal(got.state, want.state) {
				t.Errorf("outputs differ from the element-wise reference:\n got %q\nwant %q", got.state, want.state)
			}
			if got.now != want.now {
				t.Errorf("virtual clock %s, reference %s", got.now, want.now)
			}
		})
	}
}

// --- fixed inputs ------------------------------------------------------------

// tensorArg allocates a tensor of the given shape holding vals.
func tensorArg(t *testing.T, ctx *framework.Ctx, vals []float64, shape ...int) framework.Value {
	t.Helper()
	id, tn, err := ctx.NewTensor(shape...)
	if err != nil {
		t.Fatal(err)
	}
	if err := tn.SetValues(vals); err != nil {
		t.Fatal(err)
	}
	return framework.Obj(id)
}

// matArg allocates a rows x cols x ch mat with a fixed textured pattern.
func matArg(t *testing.T, ctx *framework.Ctx, rows, cols, ch int) framework.Value {
	t.Helper()
	data := make([]byte, rows*cols*ch)
	for i := range data {
		data[i] = byte(i*37 + (i/cols)*11 + (i*i)%23)
	}
	id, _, err := ctx.NewMatFromBytes(rows, cols, ch, data)
	if err != nil {
		t.Fatal(err)
	}
	return framework.Obj(id)
}

// series returns n fixed, irregular values of the given magnitude.
func series(n int, seed, scale float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Round(scale*math.Sin(seed*float64(i+1))*100) / 100
	}
	return out
}

// flowField returns a rows x cols x 2 field of small integer offsets.
func flowField(rows, cols int) []float64 {
	out := make([]float64, rows*cols*2)
	for i := range out {
		out[i] = float64(i%5 - 2)
	}
	return out
}

var kernelCases = []kernelCase{
	{
		api: "cv.BFMatcher.match",
		args: func(t *testing.T, ctx *framework.Ctx) []framework.Value {
			return []framework.Value{
				tensorArg(t, ctx, series(5*4, 1.3, 10), 5, 4),
				tensorArg(t, ctx, series(7*4, 0.7, 10), 7, 4),
			}
		},
		ref: func(*framework.API) framework.Impl { return refMatch },
	},
	{
		api: "cv.HOGDescriptor.compute",
		args: func(t *testing.T, ctx *framework.Ctx) []framework.Value {
			return []framework.Value{matArg(t, ctx, 20, 18, 3)}
		},
		ref: func(*framework.API) framework.Impl {
			return reduceAPI("cv.HOGDescriptor.compute", 12, nil, dpSyscalls(), refHOG).Impl
		},
	},
	{
		api: "cv.compareHist",
		args: func(t *testing.T, ctx *framework.Ctx) []framework.Value {
			a, b := series(32, 0.9, 50), series(32, 1.1, 50)
			for i := range a {
				a[i], b[i] = math.Abs(a[i]), math.Abs(b[i])
			}
			a[3], b[3] = 0, 0
			return []framework.Value{tensorArg(t, ctx, a, 32), tensorArg(t, ctx, b, 32)}
		},
		ref: func(*framework.API) framework.Impl { return refCompareHist },
	},
	{
		api: "cv.drawContours",
		args: func(t *testing.T, ctx *framework.Ctx) []framework.Value {
			boxes := []float64{
				1, 2, 5, 7, 20,
				8, 1, 14, 3, 9,
				0, 0, 15, 15, 256,
			}
			return []framework.Value{matArg(t, ctx, 16, 16, 1), tensorArg(t, ctx, boxes, 3, 5)}
		},
		ref: refDrawContours,
	},
	{
		api: "cv.warpPerspective",
		args: func(t *testing.T, ctx *framework.Ctx) []framework.Value {
			h := []float64{0.9, 0.1, 1, -0.05, 1.1, -2, 0.001, 0, 1}
			return []framework.Value{matArg(t, ctx, 12, 14, 3), tensorArg(t, ctx, h, 3, 3)}
		},
		ref: refWarp("cv.warpPerspective"),
	},
	{
		api: "cv.warpAffine",
		args: func(t *testing.T, ctx *framework.Ctx) []framework.Value {
			h := []float64{1, 0, 2, 0, 1, -1}
			return []framework.Value{matArg(t, ctx, 12, 14, 1), tensorArg(t, ctx, h, 2, 3)}
		},
		ref: refWarp("cv.warpAffine"),
	},
	{
		api: "cv.remap",
		args: func(t *testing.T, ctx *framework.Ctx) []framework.Value {
			return []framework.Value{matArg(t, ctx, 10, 9, 3), tensorArg(t, ctx, flowField(10, 9), 10, 9, 2)}
		},
		ref: func(*framework.API) framework.Impl { return refRemap },
	},
	{
		api: "cv.filter2D",
		args: func(t *testing.T, ctx *framework.Ctx) []framework.Value {
			k := []float64{1, 2, 1, 2, 4, 2, 1, 2, 1}
			return []framework.Value{matArg(t, ctx, 10, 11, 3), tensorArg(t, ctx, k, 3, 3)}
		},
		ref: func(*framework.API) framework.Impl { return refFilter2D },
	},
	{
		api: "cv.writeOpticalFlow",
		args: func(t *testing.T, ctx *framework.Ctx) []framework.Value {
			return []framework.Value{framework.Str("/out/flow.flo"), tensorArg(t, ctx, flowField(6, 7), 6, 7, 2)}
		},
		ref: func(*framework.API) framework.Impl { return refWriteFlow },
	},
}

// --- element-wise reference implementations ---------------------------------

func refMatch(ctx *framework.Ctx, args []framework.Value) ([]framework.Value, error) {
	if err := needArgs("BFMatcher.match", args, 2); err != nil {
		return nil, err
	}
	a, err := ctx.Tensor(args[0])
	if err != nil {
		return nil, err
	}
	b, err := ctx.Tensor(args[1])
	if err != nil {
		return nil, err
	}
	sa, sb := a.Shape(), b.Shape()
	if len(sa) != 2 || len(sb) != 2 || sa[1] != sb[1] {
		return nil, fmt.Errorf("simcv: match wants NxD tensors, got %v vs %v", sa, sb)
	}
	ctx.Charge(a.Size()+b.Size(), 8)
	ctx.EmitMemOp()
	id, t, err := ctx.NewTensor(sa[0], 2)
	if err != nil {
		return nil, err
	}
	for i := 0; i < sa[0]; i++ {
		bestJ, bestD := 0, math.MaxFloat64
		for j := 0; j < sb[0]; j++ {
			d := 0.0
			for k := 0; k < sa[1]; k++ {
				x, _ := a.At(i, k)
				y, _ := b.At(j, k)
				d += (x - y) * (x - y)
			}
			if d < bestD {
				bestD, bestJ = d, j
			}
		}
		_ = t.Set(float64(bestJ), i, 0)
		_ = t.Set(math.Sqrt(bestD), i, 1)
	}
	return []framework.Value{framework.Obj(id)}, nil
}

func refHOG(ctx *framework.Ctx, m *object.Mat, data []byte, args []framework.Value) ([]framework.Value, error) {
	rows, cols := m.Rows(), m.Cols()
	g := grayOf(rows, cols, m.Channels(), data)
	cellsR, cellsC := (rows+7)/8, (cols+7)/8
	id, t, err := ctx.NewTensor(cellsR*cellsC, 8)
	if err != nil {
		return nil, err
	}
	for r := 1; r < rows-1; r++ {
		for c := 1; c < cols-1; c++ {
			gx := int(g[r*cols+c+1]) - int(g[r*cols+c-1])
			gy := int(g[(r+1)*cols+c]) - int(g[(r-1)*cols+c])
			mag := math.Hypot(float64(gx), float64(gy))
			ang := math.Atan2(float64(gy), float64(gx)) + math.Pi
			bin := int(ang/(2*math.Pi)*8) % 8
			cell := (r/8)*cellsC + c/8
			old, _ := t.At(cell, bin)
			if err := t.Set(old+mag, cell, bin); err != nil {
				return nil, err
			}
		}
	}
	return []framework.Value{framework.Obj(id)}, nil
}

func refCompareHist(ctx *framework.Ctx, args []framework.Value) ([]framework.Value, error) {
	if err := needArgs("cv.compareHist", args, 2); err != nil {
		return nil, err
	}
	a, err := ctx.Tensor(args[0])
	if err != nil {
		return nil, err
	}
	b, err := ctx.Tensor(args[1])
	if err != nil {
		return nil, err
	}
	if a.Len() != b.Len() {
		return nil, errorString("simcv: histogram length mismatch")
	}
	d := 0.0
	for i := 0; i < a.Len(); i++ {
		x, _ := a.AtFlat(i)
		y, _ := b.AtFlat(i)
		if x+y > 0 {
			d += (x - y) * (x - y) / (x + y)
		}
	}
	ctx.EmitMemOp()
	return []framework.Value{framework.Float64(d)}, nil
}

func refDrawContours(api *framework.API) framework.Impl {
	return func(ctx *framework.Ctx, args []framework.Value) ([]framework.Value, error) {
		if err := needArgs("cv.drawContours", args, 2); err != nil {
			return nil, err
		}
		m, data, err := matAndBytes(ctx, args[0])
		if err != nil {
			return nil, err
		}
		if fired, err := ctx.MaybeExploit(api, data); fired {
			return nil, err
		}
		t, err := ctx.Tensor(args[1])
		if err != nil {
			return nil, err
		}
		sh := t.Shape()
		if len(sh) != 2 || sh[1] < 4 {
			return nil, errorString("simcv: drawContours wants Nx5 contour tensor")
		}
		ctx.Charge(len(data), 1)
		ctx.EmitMemOp()
		for i := 0; i < sh[0]; i++ {
			minR, _ := t.At(i, 0)
			minC, _ := t.At(i, 1)
			maxR, _ := t.At(i, 2)
			maxC, _ := t.At(i, 3)
			for c := int(minC); c <= int(maxC); c++ {
				setPix(m, data, int(minR), c, 255)
				setPix(m, data, int(maxR), c, 255)
			}
			for rr := int(minR); rr <= int(maxR); rr++ {
				setPix(m, data, rr, int(minC), 255)
				setPix(m, data, rr, int(maxC), 255)
			}
		}
		if err := m.Space().Store(m.Region().Base, data); err != nil {
			return nil, err
		}
		return []framework.Value{args[0]}, nil
	}
}

func refWarp(name string) func(api *framework.API) framework.Impl {
	return func(api *framework.API) framework.Impl {
		return func(ctx *framework.Ctx, args []framework.Value) ([]framework.Value, error) {
			if err := needArgs(name, args, 2); err != nil {
				return nil, err
			}
			m, data, err := matAndBytes(ctx, args[0])
			if err != nil {
				return nil, err
			}
			if fired, err := ctx.MaybeExploit(api, data); fired {
				return nil, err
			}
			h, err := ctx.Tensor(args[1])
			if err != nil {
				return nil, err
			}
			if h.Len() < 6 {
				return nil, fmt.Errorf("simcv: %s matrix needs >=6 entries", name)
			}
			hm := make([]float64, 9)
			hm[8] = 1
			for i := 0; i < h.Len() && i < 9; i++ {
				v, err := h.AtFlat(i)
				if err != nil {
					return nil, err
				}
				hm[i] = v
			}
			rows, cols, ch := m.Rows(), m.Cols(), m.Channels()
			ctx.Charge(len(data), 4)
			ctx.EmitMemOp()
			out := make([]byte, len(data))
			for rr := 0; rr < rows; rr++ {
				for cc := 0; cc < cols; cc++ {
					x, y := float64(cc), float64(rr)
					w := hm[6]*x + hm[7]*y + hm[8]
					if w == 0 {
						continue
					}
					sx := int((hm[0]*x + hm[1]*y + hm[2]) / w)
					sy := int((hm[3]*x + hm[4]*y + hm[5]) / w)
					if sx < 0 || sx >= cols || sy < 0 || sy >= rows {
						continue
					}
					for z := 0; z < ch; z++ {
						out[(rr*cols+cc)*ch+z] = data[(sy*cols+sx)*ch+z]
					}
				}
			}
			v, err := outMat(ctx, rows, cols, ch, out)
			if err != nil {
				return nil, err
			}
			return []framework.Value{v}, nil
		}
	}
}

func refRemap(ctx *framework.Ctx, args []framework.Value) ([]framework.Value, error) {
	if err := needArgs("cv.remap", args, 2); err != nil {
		return nil, err
	}
	m, data, err := matAndBytes(ctx, args[0])
	if err != nil {
		return nil, err
	}
	flow, err := ctx.Tensor(args[1])
	if err != nil {
		return nil, err
	}
	sh := flow.Shape()
	rows, cols, ch := m.Rows(), m.Cols(), m.Channels()
	if len(sh) != 3 || sh[0] != rows || sh[1] != cols || sh[2] != 2 {
		return nil, fmt.Errorf("simcv: remap flow shape %v for %dx%d image", sh, rows, cols)
	}
	ctx.Charge(len(data), 4)
	ctx.EmitMemOp()
	out := make([]byte, len(data))
	for rr := 0; rr < rows; rr++ {
		for cc := 0; cc < cols; cc++ {
			fx, _ := flow.At(rr, cc, 0)
			fy, _ := flow.At(rr, cc, 1)
			sr, sc := rr+int(fy), cc+int(fx)
			for z := 0; z < ch; z++ {
				out[(rr*cols+cc)*ch+z] = pix(data, rows, cols, ch, sr, sc, z)
			}
		}
	}
	v, err := outMat(ctx, rows, cols, ch, out)
	if err != nil {
		return nil, err
	}
	return []framework.Value{v}, nil
}

func refFilter2D(ctx *framework.Ctx, args []framework.Value) ([]framework.Value, error) {
	if err := needArgs("cv.filter2D", args, 2); err != nil {
		return nil, err
	}
	m, data, err := matAndBytes(ctx, args[0])
	if err != nil {
		return nil, err
	}
	kt, err := ctx.Tensor(args[1])
	if err != nil {
		return nil, err
	}
	if kt.Len() != 9 {
		return nil, needArgs("cv.filter2D kernel must be 3x3", args, 99)
	}
	var k [9]int
	div := 0
	for i := range k {
		v, err := kt.AtFlat(i)
		if err != nil {
			return nil, err
		}
		k[i] = int(v)
		div += int(v)
	}
	if div == 0 {
		div = 1
	}
	ctx.Charge(len(data), 9)
	ctx.EmitMemOp()
	out := convolve3(m.Rows(), m.Cols(), m.Channels(), data, k, div)
	v, err := outMat(ctx, m.Rows(), m.Cols(), m.Channels(), out)
	if err != nil {
		return nil, err
	}
	return []framework.Value{v}, nil
}

func refWriteFlow(ctx *framework.Ctx, args []framework.Value) ([]framework.Value, error) {
	if err := needArgs("writeOpticalFlow", args, 2); err != nil {
		return nil, err
	}
	t, err := ctx.Tensor(args[1])
	if err != nil {
		return nil, err
	}
	sh := t.Shape()
	if len(sh) != 3 || sh[2] != 2 {
		return nil, fmt.Errorf("simcv: flow tensor must be rows x cols x 2, got %v", sh)
	}
	vals := make([]float64, t.Len())
	for i := range vals {
		v, err := t.AtFlat(i)
		if err != nil {
			return nil, err
		}
		vals[i] = v
	}
	enc, err := encodeFlow(sh[0], sh[1], vals)
	if err != nil {
		return nil, err
	}
	if err := ctx.FileWrite(args[0].Str, enc); err != nil {
		return nil, err
	}
	return []framework.Value{framework.Bool(true)}, nil
}
