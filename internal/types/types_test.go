package types

import "testing"

// hierarchy builds the running example of the paper:
// open class A<T>; class B<T>(val f: A<T>) : A<T>().
func hierarchy() (*Constructor, *Constructor, *Builtins) {
	b := NewBuiltins()
	aT := NewParameter("A", "T")
	ctorA := NewConstructor("A", []*Parameter{aT}, nil)
	bT := NewParameter("B", "T")
	ctorB := NewConstructor("B", []*Parameter{bT}, ctorA.Apply(bT))
	return ctorA, ctorB, b
}

func TestExtremalTypes(t *testing.T) {
	b := NewBuiltins()
	for _, ty := range b.All() {
		if !IsSubtype(ty, Top{}) {
			t.Errorf("%s should be a subtype of Any", ty)
		}
		if !IsSubtype(Bottom{}, ty) {
			t.Errorf("Nothing should be a subtype of %s", ty)
		}
		if IsSubtype(Top{}, ty) {
			t.Errorf("Any must not be a subtype of %s", ty)
		}
	}
	if !IsSubtype(Top{}, Top{}) || !IsSubtype(Bottom{}, Bottom{}) {
		t.Error("subtyping must be reflexive at the extremes")
	}
}

func TestBuiltinNumericTower(t *testing.T) {
	b := NewBuiltins()
	for _, n := range []*Simple{b.Byte, b.Short, b.Int, b.Long, b.Float, b.Double} {
		if !IsSubtype(n, b.Number) {
			t.Errorf("%s <: Number expected", n)
		}
		if IsSubtype(b.Number, n) {
			t.Errorf("Number must not be a subtype of %s", n)
		}
		if !b.IsNumeric(n) {
			t.Errorf("IsNumeric(%s) should hold", n)
		}
	}
	if IsSubtype(b.String, b.Number) {
		t.Error("String must not be numeric")
	}
	if b.IsNumeric(b.String) {
		t.Error("IsNumeric(String) must be false")
	}
}

func TestNominalSubtypingChain(t *testing.T) {
	animal := NewSimple("Animal", nil)
	dog := NewSimple("Dog", animal)
	puppy := NewSimple("Puppy", dog)
	if !IsSubtype(puppy, animal) {
		t.Error("Puppy <: Animal via transitivity")
	}
	if !IsSubtype(dog, animal) || IsSubtype(animal, dog) {
		t.Error("Dog <: Animal must be antisymmetric here")
	}
	if !IsSubtype(puppy, puppy) {
		t.Error("reflexivity")
	}
}

func TestParameterizedSubtyping(t *testing.T) {
	ctorA, ctorB, b := hierarchy()
	aString := ctorA.Apply(b.String)
	bString := ctorB.Apply(b.String)
	bInt := ctorB.Apply(b.Int)

	if !IsSubtype(bString, aString) {
		t.Error("B<String> <: A<String> via class B<T> : A<T>")
	}
	if IsSubtype(bInt, aString) {
		t.Error("B<Int> must not be a subtype of A<String> (invariance)")
	}
	if IsSubtype(aString, bString) {
		t.Error("A<String> must not be a subtype of B<String>")
	}
	if !IsSubtype(bString, Top{}) {
		t.Error("B<String> <: Any")
	}
}

func TestInvariantArguments(t *testing.T) {
	ctorA, _, b := hierarchy()
	aInt := ctorA.Apply(b.Int)
	aNumber := ctorA.Apply(b.Number)
	if IsSubtype(aInt, aNumber) {
		t.Error("invariant A<Int> must not be a subtype of A<Number>")
	}
	if !IsSubtype(aInt, ctorA.Apply(b.Int)) {
		t.Error("A<Int> <: A<Int>")
	}
}

func TestDeclarationSiteVariance(t *testing.T) {
	b := NewBuiltins()
	outT := &Parameter{Owner: "Producer", ParamName: "T", Var: Covariant}
	producer := NewConstructor("Producer", []*Parameter{outT}, nil)
	inT := &Parameter{Owner: "Consumer", ParamName: "T", Var: Contravariant}
	consumer := NewConstructor("Consumer", []*Parameter{inT}, nil)

	if !IsSubtype(producer.Apply(b.Int), producer.Apply(b.Number)) {
		t.Error("covariant: Producer<Int> <: Producer<Number>")
	}
	if IsSubtype(producer.Apply(b.Number), producer.Apply(b.Int)) {
		t.Error("covariant must not flip")
	}
	if !IsSubtype(consumer.Apply(b.Number), consumer.Apply(b.Int)) {
		t.Error("contravariant: Consumer<Number> <: Consumer<Int>")
	}
	if IsSubtype(consumer.Apply(b.Int), consumer.Apply(b.Number)) {
		t.Error("contravariant must not flip")
	}
}

func TestUseSiteProjections(t *testing.T) {
	ctorA, _, b := hierarchy()
	aInt := ctorA.Apply(b.Int)
	aOutNumber := ctorA.Apply(&Projection{Var: Covariant, Bound: b.Number})
	aInNumber := ctorA.Apply(&Projection{Var: Contravariant, Bound: b.Number})
	aOutInt := ctorA.Apply(&Projection{Var: Covariant, Bound: b.Int})

	if !IsSubtype(aInt, aOutNumber) {
		t.Error("A<Int> <: A<out Number>")
	}
	if IsSubtype(ctorA.Apply(b.String), aOutNumber) {
		t.Error("A<String> must not conform to A<out Number>")
	}
	if !IsSubtype(ctorA.Apply(b.Number), aInNumber) {
		t.Error("A<Number> <: A<in Number>")
	}
	if !IsSubtype(ctorA.Apply(Top{}), aInNumber) {
		t.Error("A<Any> <: A<in Number> (super direction)")
	}
	if IsSubtype(aInt, aInNumber) {
		t.Error("A<Int> must not conform to A<in Number>")
	}
	if !IsSubtype(aOutInt, aOutNumber) {
		t.Error("projection containment: A<out Int> <: A<out Number>")
	}
	if IsSubtype(aOutNumber, aOutInt) {
		t.Error("projection containment must not flip")
	}
	if IsSubtype(aOutNumber, aInt) {
		t.Error("a projected type must not conform to a concrete instantiation")
	}
}

func TestTypeParameterSubtyping(t *testing.T) {
	b := NewBuiltins()
	tp := &Parameter{Owner: "m", ParamName: "T", Bound: b.Number}
	if !IsSubtype(tp, b.Number) {
		t.Error("T : Number is a subtype of its bound")
	}
	if !IsSubtype(tp, Top{}) {
		t.Error("T <: Any")
	}
	if IsSubtype(b.Int, tp) {
		t.Error("no concrete type is a subtype of a rigid parameter")
	}
	if !IsSubtype(tp, tp) {
		t.Error("parameter reflexivity")
	}
	if !IsSubtype(Bottom{}, tp) {
		t.Error("Nothing <: T")
	}
}

func TestFunctionTypeSubtyping(t *testing.T) {
	b := NewBuiltins()
	f1 := &Func{Params: []Type{b.Number}, Ret: b.Int}
	f2 := &Func{Params: []Type{b.Int}, Ret: b.Number}
	if !IsSubtype(f1, f2) {
		t.Error("(Number)->Int <: (Int)->Number (contra params, co ret)")
	}
	if IsSubtype(f2, f1) {
		t.Error("function subtyping must not flip")
	}
	f3 := &Func{Params: []Type{b.Int, b.Int}, Ret: b.Int}
	if IsSubtype(f1, f3) {
		t.Error("arity mismatch must fail")
	}
}

func TestIntersectionSubtyping(t *testing.T) {
	b := NewBuiltins()
	w := NewSimple("W", nil)
	a := NewSimple("A", nil)
	x := &Intersection{Members: []Type{a, w}}
	if !IsSubtype(x, a) || !IsSubtype(x, w) {
		t.Error("A & W is a subtype of both members")
	}
	if IsSubtype(x, b.String) {
		t.Error("A & W must not be a subtype of String")
	}
	if !IsSubtype(Bottom{}, x) {
		t.Error("Nothing <: A & W")
	}
}

func TestSupertypeOperation(t *testing.T) {
	ctorA, ctorB, b := hierarchy()
	sup := Supertype(ctorB.Apply(b.String))
	want := ctorA.Apply(b.String)
	if !sup.Equal(want) {
		t.Errorf("S(B<String>) = %s, want %s", sup, want)
	}
	if !Supertype(b.Int).Equal(b.Number) {
		t.Error("S(Int) = Number")
	}
	if _, ok := Supertype(Top{}).(Top); !ok {
		t.Error("S(Any) = Any")
	}
}

func TestSubstitutionApplication(t *testing.T) {
	ctorA, ctorB, b := hierarchy()
	tp := ctorB.Params[0]
	sigma := NewSubstitution()
	sigma.Bind(tp, b.String)

	// [T ↦ String] A<T> = A<String>
	got := sigma.Apply(ctorA.Apply(tp))
	if !got.Equal(ctorA.Apply(b.String)) {
		t.Errorf("substitution into application failed: %s", got)
	}
	// Unbound parameters are untouched.
	other := NewParameter("X", "U")
	if !sigma.Apply(other).Equal(other) {
		t.Error("unbound parameter must be preserved")
	}
	// Nested: [T ↦ String] A<A<T>> = A<A<String>>.
	nested := sigma.Apply(ctorA.Apply(ctorA.Apply(tp)))
	if !nested.Equal(ctorA.Apply(ctorA.Apply(b.String))) {
		t.Errorf("nested substitution failed: %s", nested)
	}
	// Through projections.
	proj := sigma.Apply(ctorA.Apply(&Projection{Var: Covariant, Bound: tp}))
	want := ctorA.Apply(&Projection{Var: Covariant, Bound: b.String})
	if !proj.Equal(want) {
		t.Errorf("projection substitution failed: %s", proj)
	}
}

func TestSubstitutionMergeConflicts(t *testing.T) {
	b := NewBuiltins()
	p := NewParameter("m", "T")
	s1 := NewSubstitution()
	s1.Bind(p, b.Int)
	s2 := NewSubstitution()
	s2.Bind(p, b.Int)
	if !s1.Merge(s2) {
		t.Error("merging equal bindings must succeed")
	}
	// s3 binds a fresh parameter before the conflicting one: a failed
	// merge must not have taken it.
	q := NewParameter("m", "U")
	s3 := NewSubstitution()
	s3.Bind(q, b.Long)
	s3.Bind(p, b.String)
	if s1.Merge(s3) {
		t.Error("conflicting bindings must fail to merge")
	}
	if got := s1.String(); got != "[m.T ↦ Int]" {
		t.Errorf("a failed merge changed its receiver: %s, want [m.T ↦ Int]", got)
	}
}

func TestUnifyParameter(t *testing.T) {
	ctorA, _, b := hierarchy()
	tp := NewParameter("m", "T")
	sigma := Unify(tp, b.String)
	if sigma == nil {
		t.Fatal("unify(T, String) must succeed")
	}
	if got, _ := sigma.Lookup(tp); !got.Equal(b.String) {
		t.Errorf("unify(T, String) = %s", sigma)
	}

	// unify(A<T>, A<String>) = [T ↦ String]
	sigma = Unify(ctorA.Apply(tp), ctorA.Apply(b.String))
	if sigma == nil {
		t.Fatal("unify(A<T>, A<String>) must succeed")
	}
	if got, _ := sigma.Lookup(tp); !got.Equal(b.String) {
		t.Errorf("wrong binding: %s", sigma)
	}
}

func TestUnifyThroughHierarchy(t *testing.T) {
	ctorA, ctorB, b := hierarchy()
	tp := NewParameter("m", "T")
	// σ B<T> <: A<String> requires [T ↦ String].
	sigma := Unify(ctorB.Apply(tp), ctorA.Apply(b.String))
	if sigma == nil {
		t.Fatal("unify(B<T>, A<String>) must succeed through the hierarchy")
	}
	got, ok := sigma.Lookup(tp)
	if !ok || !got.Equal(b.String) {
		t.Errorf("want [T ↦ String], got %s", sigma)
	}
	inst := sigma.Apply(ctorB.Apply(tp))
	if !IsSubtype(inst, ctorA.Apply(b.String)) {
		t.Errorf("σ·B<T> = %s must be a subtype of A<String>", inst)
	}
}

func TestUnifyRespectsBounds(t *testing.T) {
	b := NewBuiltins()
	// fun <T2 : String> bar(): T2 flowing into foo(x: T1 : Number) — the
	// KT-48765 scenario. Unifying T2 with Number must FAIL because
	// Number is not a subtype of String.
	t2 := &Parameter{Owner: "bar", ParamName: "T2", Bound: b.String}
	if sigma := Unify(t2, b.Number); sigma != nil {
		t.Errorf("unify must reject bound violation, got %s", sigma)
	}
	// The unchecked variant (modelling the buggy compiler) accepts it.
	if sigma := UnifyUnchecked(t2, b.Number); sigma == nil {
		t.Error("unchecked unification models the compiler bug and must succeed")
	}
}

func TestUnifyGroundMismatch(t *testing.T) {
	ctorA, _, b := hierarchy()
	if sigma := Unify(ctorA.Apply(b.Int), ctorA.Apply(b.String)); sigma != nil {
		t.Errorf("unify(A<Int>, A<String>) must fail, got %s", sigma)
	}
	if sigma := Unify(b.String, b.Int); sigma != nil {
		t.Errorf("unify(String, Int) must fail, got %s", sigma)
	}
	if sigma := Unify(b.Int, b.Number); sigma == nil {
		t.Error("unify(Int, Number) trivially holds (Int <: Number)")
	}
}

func TestUnifyNestedApplications(t *testing.T) {
	ctorA, ctorB, b := hierarchy()
	tp := NewParameter("m", "T")
	// unify(B<A<T>>, B<A<Long>>) = [T ↦ Long] — the GROOVY-10080 shape.
	sigma := Unify(ctorB.Apply(ctorA.Apply(tp)), ctorB.Apply(ctorA.Apply(b.Long)))
	if sigma == nil {
		t.Fatal("nested unification must succeed")
	}
	if got, _ := sigma.Lookup(tp); !got.Equal(b.Long) {
		t.Errorf("want [T ↦ Long], got %s", sigma)
	}
}

func TestUnifyPrimeDependentParameters(t *testing.T) {
	ctorA, ctorB, b := hierarchy()
	// unify'(A<String>, B<String>) = [B.T ↦ A.T-instantiation]: the
	// dependency that instantiating B's T also instantiates A's T.
	sigma := UnifyPrime(ctorA.Apply(b.String), ctorB.Apply(b.String))
	if sigma == nil || sigma.IsEmpty() {
		// Arguments equal on both sides: dependency recorded as the
		// concrete instantiation String.
		t.Fatalf("unify' must record a dependency, got %v", sigma)
	}
	// unify'(A<A.T>, B<B.T>) should map B.T to A.T (param-to-param).
	sigma = UnifyPrime(ctorA.Apply(ctorA.Params[0]), ctorB.Apply(ctorB.Params[0]))
	got, ok := sigma.Lookup(ctorB.Params[0])
	if !ok {
		t.Fatalf("unify' must bind B.T, got %s", sigma)
	}
	if p, isParam := got.(*Parameter); !isParam || p.ID() != ctorA.Params[0].ID() {
		t.Errorf("want [B.T ↦ A.T], got %s", sigma)
	}
}

func TestLub(t *testing.T) {
	ctorA, ctorB, b := hierarchy()
	if got := Lub(b.Int, b.Long); !got.Equal(b.Number) {
		t.Errorf("Int ⊔ Long = %s, want Number", got)
	}
	if got := Lub(b.Int, b.Int); !got.Equal(b.Int) {
		t.Errorf("Int ⊔ Int = %s", got)
	}
	if got := Lub(b.Int, b.String); (got != Type(Top{})) && !got.Equal(Top{}) {
		t.Errorf("Int ⊔ String = %s, want Any", got)
	}
	// B<String> ⊔ A<String> = A<String>.
	if got := Lub(ctorB.Apply(b.String), ctorA.Apply(b.String)); !got.Equal(ctorA.Apply(b.String)) {
		t.Errorf("B<String> ⊔ A<String> = %s", got)
	}
	// A<Int> ⊔ A<Long> projects: A<out Number>.
	got := Lub(ctorA.Apply(b.Int), ctorA.Apply(b.Long))
	want := ctorA.Apply(&Projection{Var: Covariant, Bound: b.Number})
	if !got.Equal(want) {
		t.Errorf("A<Int> ⊔ A<Long> = %s, want %s", got, want)
	}
	// ⊥ is the identity of ⊔.
	if got := Lub(Bottom{}, b.String); !got.Equal(b.String) {
		t.Errorf("Nothing ⊔ String = %s", got)
	}
	if got := Lub(); !got.Equal(Top{}) {
		t.Errorf("empty ⊔ = %s, want Any", got)
	}
}

func TestFreeParametersAndContains(t *testing.T) {
	ctorA, _, b := hierarchy()
	tp1 := NewParameter("m", "T")
	tp2 := NewParameter("m", "U")
	typ := ctorA.Apply(&Func{Params: []Type{tp1}, Ret: ctorA.Apply(tp2)})
	free := FreeParameters(typ)
	if len(free) != 2 || free[0].ID() != tp1.ID() || free[1].ID() != tp2.ID() {
		t.Errorf("FreeParameters = %v", free)
	}
	if !ContainsParameter(typ, tp1) || !ContainsParameter(typ, tp2) {
		t.Error("ContainsParameter must find both")
	}
	if ContainsParameter(b.String, tp1) {
		t.Error("String contains no parameters")
	}
	if ContainsParameter(typ, NewParameter("x", "T")) {
		t.Error("parameters are identified by owner-qualified name")
	}
}

func TestStringRendering(t *testing.T) {
	ctorA, ctorB, b := hierarchy()
	cases := []struct {
		t    Type
		want string
	}{
		{ctorA.Apply(b.String), "A<String>"},
		{ctorB.Apply(ctorA.Apply(b.Long)), "B<A<Long>>"},
		{ctorA.Apply(&Projection{Var: Covariant, Bound: b.Number}), "A<out Number>"},
		{&Func{Params: []Type{b.Int}, Ret: b.String}, "(Int) -> String"},
		{&Intersection{Members: []Type{b.String, b.Int}}, "String & Int"},
		{Top{}, "Any"},
		{Bottom{}, "Nothing"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}

func TestConstructorApplyArityPanics(t *testing.T) {
	ctorA, _, b := hierarchy()
	defer func() {
		if recover() == nil {
			t.Error("arity mismatch must panic")
		}
	}()
	ctorA.Apply(b.Int, b.String)
}
