// Stats blocks: plain structs of std::uint64_t counters whose field list is
// written once, as an X-macro, and expanded into the members, a per-field
// visitor and -- through the visitor -- the generic accumulate() that sums a
// sharded machine's per-domain blocks and the name/value walk that flattens
// a block into the metrics snapshot.
//
//   #define SUVTM_FOO_STATS(X) X(hits) X(misses)
//   struct FooStats { SUVTM_STATS_BLOCK(FooStats, SUVTM_FOO_STATS) };
//
// Members are declared in list order and nothing else is added to the
// object, so a block's layout (and every byte hash over it) is exactly the
// hand-written struct it replaces.
#pragma once

#include <cstdint>

#define SUVTM_STATS_MEMBER_(name) std::uint64_t name = 0;
#define SUVTM_STATS_VISIT_(name) f(#name, &Self_::name);

/// Declares the fields of FIELDS, defaulted equality, and
/// `static void for_each_field(f)`, which calls f(name, member pointer)
/// once per field in declaration order.
#define SUVTM_STATS_BLOCK(Type, FIELDS)                     \
  FIELDS(SUVTM_STATS_MEMBER_)                               \
  bool operator==(const Type&) const = default;             \
  template <class F>                                        \
  static void for_each_field(F&& f) {                       \
    using Self_ = Type;                                     \
    FIELDS(SUVTM_STATS_VISIT_)                              \
  }

namespace suvtm {

template <class T>
concept StatsBlock = requires {
  T::for_each_field([](const char*, std::uint64_t T::*) {});
};

/// Sum every field of `b` into `a` (harvesting per-domain blocks).
template <StatsBlock T>
void accumulate(T& a, const T& b) {
  T::for_each_field(
      [&](const char*, std::uint64_t T::*m) { a.*m += b.*m; });
}

/// Call f(field name, value) for every field of `s`, in declaration order.
template <StatsBlock T, class F>
void visit_fields(const T& s, F&& f) {
  T::for_each_field(
      [&](const char* name, std::uint64_t T::*m) { f(name, s.*m); });
}

}  // namespace suvtm
