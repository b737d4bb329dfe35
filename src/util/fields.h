#ifndef HASHJOIN_UTIL_FIELDS_H_
#define HASHJOIN_UTIL_FIELDS_H_

#include <algorithm>
#include <array>
#include <cstddef>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/json_writer.h"

namespace hashjoin {
namespace fields {

// One field list per stats struct. A stats struct names its members
// once, in a static member template beside the declaration:
//
//   template <class V>
//   static constexpr void VisitFields(V& v) {
//     v("total_cycles", &SimStats::TotalCycles);  // derived: JSON only
//     v("busy_cycles", &SimStats::busy_cycles);
//     v("deepest_recursion", &DiskJoinRecovery::deepest_recursion,
//       fields::Kind::kLevel);
//   }
//
// Sums, after-before diffs, JSON and bench_diff's block checks are
// visitors over that list. A data member is visited as `v(key,
// &S::member[, kind])`; a const member function taking no arguments is
// a derived value, written to JSON but never summed or diffed; a member
// whose type has its own list nests. Add, Diff and the JSON writer
// refuse to compile for a struct whose list misses a data member, and
// the JSON writer for one listing a member JSON cannot hold without
// fields::kInternal.

/// How a data member combines across two readings.
enum class Kind {
  kCounter,  ///< a sum adds it; a diff subtracts `before`
  kLevel,    ///< a level, not a count (a high-water mark, a current
             ///< size, a label): a sum keeps the larger value, a diff
             ///< keeps `after`
};

/// Lists a counter (summed and diffed like kCounter) that JSON leaves
/// out: `v("hist", &S::hist, fields::kInternal)`. A type, not a Kind, so
/// the JSON writer drops it at compile time.
struct Internal {
  constexpr operator Kind() const { return Kind::kCounter; }  // NOLINT
};
inline constexpr Internal kInternal{};

namespace internal {

/// True when a visitor's optional kind argument is fields::kInternal.
template <class... KindArg>
inline constexpr bool kIsInternal = (std::is_same_v<KindArg, Internal> || ...);

struct AnyVisitor {
  template <class... A>
  constexpr void operator()(A&&...) const {}
};

/// Converts to any member type, in unevaluated aggregate
/// initializations only (never defined).
struct AnyMember {
  template <class T>
  operator T&() const noexcept;  // NOLINT
};

template <class S, size_t... I>
constexpr bool InitializableWith(std::index_sequence<I...>) {
  return requires { S{(void(I), AnyMember{})...}; };
}

/// Number of direct data members of aggregate S.
template <class S, size_t N = 0>
constexpr size_t AggregateArity() {
  if constexpr (InitializableWith<S>(std::make_index_sequence<N + 1>())) {
    return AggregateArity<S, N + 1>();
  } else {
    return N;
  }
}

template <class P>
struct Member;
template <class S, class M>
struct Member<M S::*> {
  using type = M;
};

template <class T>
struct IsStdArray : std::false_type {};
template <class T, size_t N>
struct IsStdArray<std::array<T, N>> : std::true_type {};

template <class T>
struct IsOptional : std::false_type {};
template <class T>
struct IsOptional<std::optional<T>> : std::true_type {};

}  // namespace internal

/// True for a struct that declares a VisitFields list.
template <class S>
concept HasFields = requires(internal::AnyVisitor& v) { S::VisitFields(v); };

namespace internal {

/// Whether JSON can hold a T.
template <class T>
constexpr bool JsonWritable() {
  if constexpr (HasFields<T>) {
    return true;
  } else if constexpr (IsOptional<T>::value || IsStdArray<T>::value) {
    return JsonWritable<typename T::value_type>();
  } else {
    return std::is_constructible_v<JsonValue, const T&>;
  }
}

}  // namespace internal

/// The member type a member pointer `P` points to.
template <class P>
using MemberType = typename internal::Member<P>::type;

/// True when S's list names every data member S has.
template <HasFields S>
constexpr bool ListsEveryMember() {
  size_t listed = 0;
  auto count = [&](const char*, auto member, Kind = Kind::kCounter) {
    if (!std::is_member_function_pointer_v<decltype(member)>) ++listed;
  };
  S::VisitFields(count);
  return listed == internal::AggregateArity<S>();
}

/// True when JSON can hold every data member S lists without
/// fields::kInternal (ServiceStats' per-query records need the tag).
template <HasFields S>
constexpr bool JsonHoldsEveryMember() {
  bool holds = true;
  auto check = [&](const char*, auto member, auto... kind) {
    using P = decltype(member);
    if constexpr (!std::is_member_function_pointer_v<P> &&
                  !internal::kIsInternal<decltype(kind)...>) {
      holds = holds && internal::JsonWritable<MemberType<P>>();
    }
  };
  S::VisitFields(check);
  return holds;
}

namespace internal {

template <class T>
constexpr void Combine(T& a, const T& b, Kind kind, bool diff);

template <class S>
constexpr void CombineFields(S& a, const S& b, bool diff) {
  static_assert(ListsEveryMember<S>(), "a member is missing from VisitFields");
  auto visit = [&](const char*, auto member, Kind kind = Kind::kCounter) {
    if constexpr (!std::is_member_function_pointer_v<decltype(member)>) {
      Combine(a.*member, b.*member, kind, diff);
    }
  };
  S::VisitFields(visit);
}

template <class T>
constexpr void Combine(T& a, const T& b, Kind kind, bool diff) {
  if constexpr (HasFields<T>) {
    CombineFields(a, b, diff);
  } else if constexpr (IsStdArray<T>::value) {
    for (size_t i = 0; i < a.size(); ++i) Combine(a[i], b[i], kind, diff);
  } else if (kind == Kind::kLevel) {
    if (!diff) a = std::max(a, b);
  } else if (diff) {
    a -= b;
  } else {
    a += b;
  }
}

}  // namespace internal

/// a += b, member by member: counters add, levels keep the larger value.
template <HasFields S>
constexpr void Add(S& a, const S& b) {
  internal::CombineFields(a, b, /*diff=*/false);
}

/// after - before, member by member: counters subtract, levels keep
/// `after` (a window's high-water mark is the one seen at its end).
template <HasFields S>
constexpr S Diff(S after, const S& before) {
  internal::CombineFields(after, before, /*diff=*/true);
  return after;
}

// --- JSON: each listed data member and derived value under its key,
// kInternal members left out, a nested list as a nested object, an empty
// optional as null ("not measured" is not 0).

template <HasFields S>
void AppendJson(const S& s, JsonValue* obj);

namespace internal {

template <class T>
JsonValue JsonOf(const T& value) {
  if constexpr (HasFields<T>) {
    JsonValue obj = JsonValue::Object();
    AppendJson(value, &obj);
    return obj;
  } else if constexpr (IsOptional<T>::value) {
    return value.has_value() ? JsonOf(*value) : JsonValue();
  } else if constexpr (IsStdArray<T>::value) {
    JsonValue arr = JsonValue::Array();
    for (const auto& element : value) arr.Append(JsonOf(element));
    return arr;
  } else {
    return JsonValue(value);
  }
}

}  // namespace internal

/// Sets S's keys on the object `obj` (several structs can share one).
template <HasFields S>
void AppendJson(const S& s, JsonValue* obj) {
  static_assert(ListsEveryMember<S>(), "a member is missing from VisitFields");
  static_assert(JsonHoldsEveryMember<S>(),
                "a member JSON cannot hold must be listed fields::kInternal");
  auto visit = [&](const char* key, auto member, auto... kind) {
    if constexpr (internal::kIsInternal<decltype(kind)...>) {
      return;
    } else if constexpr (std::is_member_function_pointer_v<
                             decltype(member)>) {
      obj->Set(key, internal::JsonOf((s.*member)()));
    } else {
      obj->Set(key, internal::JsonOf(s.*member));
    }
  };
  S::VisitFields(visit);
}

template <HasFields S>
JsonValue ToJson(const S& s) {
  return internal::JsonOf(s);
}

template <HasFields S>
JsonValue ToJsonArray(const std::vector<S>& values) {
  JsonValue arr = JsonValue::Array();
  for (const S& s : values) arr.Append(ToJson(s));
  return arr;
}

/// The keys ToJson(S) writes, a nested list's as dotted paths
/// ("io.read_retries") — what bench_diff --check expects of a block.
template <HasFields S>
std::vector<std::string> JsonKeys() {
  std::vector<std::string> keys;
  auto visit = [&](const char* key, auto member, auto... kind) {
    using P = decltype(member);
    if constexpr (internal::kIsInternal<decltype(kind)...>) {
      return;
    } else if constexpr (!std::is_member_function_pointer_v<P> &&
                         HasFields<MemberType<P>>) {
      for (const std::string& sub : JsonKeys<MemberType<P>>()) {
        keys.push_back(std::string(key) + "." + sub);
      }
    } else {
      keys.push_back(key);
    }
  };
  S::VisitFields(visit);
  return keys;
}

}  // namespace fields
}  // namespace hashjoin

#endif  // HASHJOIN_UTIL_FIELDS_H_
