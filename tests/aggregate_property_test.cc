// Property-based verification of the paper's Figure 1: every row's
// aggregate function is monotonic in the Section 4.1 sense —
//   I ⊑_D I'  ⇒  F(I) ⊑_R F(I')
// where I ⊑_D I' holds via an injective, element-wise-⊑ mapping. We generate
// I' from I either by appending elements or by raising existing elements,
// which realizes exactly such mappings.

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <utility>

#include "lattice/aggregate.h"
#include "util/random.h"

namespace mad {
namespace lattice {
namespace {

using datalog::Value;
using datalog::ValueSet;

/// Samples a random member of an aggregate's input domain.
Value SampleElement(const CostDomain* domain, Random* rng) {
  if (const auto* num = dynamic_cast<const NumericDomain*>(domain)) {
    double lo = std::isfinite(num->lo()) ? num->lo() : -50.0;
    double hi = std::isfinite(num->hi()) ? num->hi() : 50.0;
    double v = rng->UniformReal(lo, hi);
    if (num->integral()) v = std::floor(v);
    return Value::Real(v);
  }
  // Set domain: random subset of a small universe. For the intersection
  // domain the universe must be the domain's own (elements outside it would
  // escape the lattice).
  const auto* set = dynamic_cast<const SetDomain*>(domain);
  ValueSet universe;
  if (set != nullptr && set->universe() != nullptr) {
    universe = *set->universe();
  } else {
    for (int i = 0; i < 8; ++i) {
      universe.push_back(Value::Symbol("s" + std::to_string(i)));
    }
  }
  ValueSet elems;
  for (const Value& u : universe) {
    if (rng->Bernoulli(0.3)) elems.push_back(u);
  }
  return Value::Set(std::move(elems));
}

/// Returns an element v' with v ⊑_D v' (possibly equal).
Value RaiseElement(const CostDomain* domain, const Value& v, Random* rng) {
  if (const auto* num = dynamic_cast<const NumericDomain*>(domain)) {
    double delta = rng->UniformReal(0.0, 10.0);
    if (num->integral()) delta = std::floor(delta);
    double raised = num->ascending() ? v.AsDouble() + delta
                                     : v.AsDouble() - delta;
    raised = std::min(std::max(raised, num->lo()), num->hi());
    // Moving toward Top() in ⊑; clamping keeps us inside the carrier.
    return Value::Real(raised);
  }
  const auto* set = dynamic_cast<const SetDomain*>(domain);
  if (set->ascending()) {
    // ⊆-raise: union with another random set.
    return SetDomain::Union(v, SampleElement(domain, rng));
  }
  // ⊇-raise: drop random elements.
  ValueSet kept;
  for (const Value& e : v.set_value()) {
    if (rng->Bernoulli(0.6)) kept.push_back(e);
  }
  return Value::Set(std::move(kept));
}

std::vector<Value> SampleMultiset(const CostDomain* domain, int max_size,
                                  Random* rng) {
  std::vector<Value> out;
  int n = static_cast<int>(rng->Uniform(0, max_size));
  for (int i = 0; i < n; ++i) out.push_back(SampleElement(domain, rng));
  return out;
}

class Figure1MonotonicityTest : public ::testing::TestWithParam<int> {
 protected:
  const Figure1Row& row() const { return Figure1()[GetParam()]; }
};

TEST_P(Figure1MonotonicityTest, AddingElementsRaisesTheAggregate) {
  const AggregateFunction* fn = row().fn;
  Random rng(1000 + GetParam());
  for (int trial = 0; trial < 300; ++trial) {
    std::vector<Value> base = SampleMultiset(fn->input_domain(), 6, &rng);
    std::vector<Value> extended = base;
    int extra = static_cast<int>(rng.Uniform(1, 3));
    for (int i = 0; i < extra; ++i) {
      extended.push_back(SampleElement(fn->input_domain(), &rng));
    }
    auto fa = fn->Apply(base);
    auto fb = fn->Apply(extended);
    ASSERT_TRUE(fa.ok() && fb.ok());
    EXPECT_TRUE(fn->output_domain()->LessEq(*fa, *fb))
        << row().description << ": F(" << base.size() << " elems) = "
        << fa->ToString() << " not ⊑ F(" << extended.size()
        << " elems) = " << fb->ToString();
  }
}

TEST_P(Figure1MonotonicityTest, RaisingElementsRaisesTheAggregate) {
  const AggregateFunction* fn = row().fn;
  Random rng(2000 + GetParam());
  for (int trial = 0; trial < 300; ++trial) {
    std::vector<Value> base = SampleMultiset(fn->input_domain(), 6, &rng);
    std::vector<Value> raised = base;
    for (Value& v : raised) {
      if (rng.Bernoulli(0.5)) v = RaiseElement(fn->input_domain(), v, &rng);
    }
    auto fa = fn->Apply(base);
    auto fb = fn->Apply(raised);
    ASSERT_TRUE(fa.ok() && fb.ok());
    EXPECT_TRUE(fn->output_domain()->LessEq(*fa, *fb)) << row().description;
  }
}

INSTANTIATE_TEST_SUITE_P(AllRows, Figure1MonotonicityTest,
                         ::testing::Range(0, 11),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return "Row" + std::to_string(info.param + 1);
                         });

// ---------------------------------------------------------------------------
// Pseudo-monotonicity (Section 4.1.1): monotone between equal-size multisets.
// ---------------------------------------------------------------------------

// Parameters are std::string rather than const char* so that the printed
// GetParam() value, which becomes part of the registered test name, is the
// text itself and not an address that changes from build to build.
using AggregateOnDomain = std::pair<std::string, std::string>;

class PseudoMonotonicityTest
    : public ::testing::TestWithParam<AggregateOnDomain> {};

TEST_P(PseudoMonotonicityTest, FixedCardinalityMonotone) {
  auto [name, domain_name] = GetParam();
  const CostDomain* domain = DomainRegistry::Global().Find(domain_name);
  auto fn_or = AggregateRegistry::Global().FindOrCreate(name, domain);
  ASSERT_TRUE(fn_or.ok());
  const AggregateFunction* fn = *fn_or;
  ASSERT_EQ(fn->monotonicity(), Monotonicity::kPseudoMonotonic);

  Random rng(31337);
  for (int trial = 0; trial < 300; ++trial) {
    int k = static_cast<int>(rng.Uniform(1, 6));
    std::vector<Value> base, raised;
    for (int i = 0; i < k; ++i) {
      Value v = SampleElement(fn->input_domain(), &rng);
      base.push_back(v);
      raised.push_back(RaiseElement(fn->input_domain(), v, &rng));
    }
    auto fa = fn->Apply(base);
    auto fb = fn->Apply(raised);
    ASSERT_TRUE(fa.ok() && fb.ok());
    EXPECT_TRUE(fn->output_domain()->LessEq(*fa, *fb))
        << name << " on " << domain_name;
  }
}

INSTANTIATE_TEST_SUITE_P(
    PseudoRows, PseudoMonotonicityTest,
    ::testing::Values(AggregateOnDomain{"and", "bool_or"},
                      AggregateOnDomain{"min", "max_real"},
                      AggregateOnDomain{"max", "min_real"},
                      AggregateOnDomain{"avg", "max_real"}),
    [](const ::testing::TestParamInfo<AggregateOnDomain>& info) {
      return info.param.first + "_" + info.param.second;
    });

TEST(PseudoMonotonicityTest, AndUnderLeqIsNotFullyMonotonic) {
  // The Section 4.1.1 counterexample: AND({1}) = 1 but AND({0, 1}) = 0, so
  // growing the multiset can lower the result — only the fixed-cardinality
  // (pseudo) property holds, which is why Definition 4.5 demands
  // default-value predicates under pseudo-monotonic aggregates.
  auto fn = AggregateRegistry::Global().FindOrCreate("and", BoolOrDomain());
  ASSERT_TRUE(fn.ok());
  auto one = (*fn)->Apply({Value::Real(1)});
  auto zero_one = (*fn)->Apply({Value::Real(0), Value::Real(1)});
  ASSERT_TRUE(one.ok() && zero_one.ok());
  EXPECT_FALSE(BoolOrDomain()->LessEq(*one, *zero_one));
}

TEST(PseudoMonotonicityTest, AverageCounterexampleToFullMonotonicity) {
  auto fn = AggregateRegistry::Global().FindOrCreate("avg", MaxRealDomain());
  ASSERT_TRUE(fn.ok());
  auto high = (*fn)->Apply({Value::Real(10)});
  auto mixed = (*fn)->Apply({Value::Real(10), Value::Real(0)});
  ASSERT_TRUE(high.ok() && mixed.ok());
  EXPECT_FALSE(MaxRealDomain()->LessEq(*high, *mixed));
}

}  // namespace
}  // namespace lattice
}  // namespace mad
