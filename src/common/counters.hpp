/**
 * @file
 * Counter registries. Each stats struct S keeps plain members (the hot
 * paths increment them directly) and declares every field once, in a
 * `constexpr auto counterFields(counters::Of<S>)` table next to it that
 * returns a std::tuple of counters::Field entries. The visitors below
 * derive JSON rendering, campaign sums, replica merges and the parity
 * check from that table, and fail to compile when the table does not
 * have one entry per field of S.
 */

#ifndef EHDL_COMMON_COUNTERS_HPP_
#define EHDL_COMMON_COUNTERS_HPP_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <tuple>
#include <type_traits>

#include "common/json.hpp"

namespace ehdl::counters {

enum class Status : uint8_t {
    /** Bit-identical across engines, schedulers and replica modes. */
    Contracted,
    /** Instrumentation; may legitimately differ between engines. */
    Diagnostic,
};

/** How the counters of concurrently running replicas combine. */
enum class Merge : uint8_t { Sum, Max };

/** Tag that finds S's table by argument-dependent lookup. */
template <class S>
struct Of
{
};

/** One table entry: field @p member of S, rendered as @p name. */
template <class S, class T>
struct Field
{
    const char *name;
    T S::*member;
    Status status;
    Merge merge = Merge::Sum;
};

namespace detail {

struct AnyField
{
    template <class T>
    operator T() const;
};

/** Number of fields of aggregate @p S: its longest valid brace-init. */
template <class S, class... A>
constexpr size_t
aggregateFieldCount()
{
    if constexpr (requires { S{A{}..., AnyField{}}; })
        return aggregateFieldCount<S, A..., AnyField>();
    else
        return sizeof...(A);
}

}  // namespace detail

/** Call @p f on every table entry of @p S, in table order. */
template <class S, class F>
void
forEachField(F &&f)
{
    constexpr auto table = counterFields(Of<S>{});
    static_assert(std::tuple_size_v<decltype(table)> ==
                      detail::aggregateFieldCount<S>(),
                  "every field of a counter struct needs one table entry");
    std::apply([&f](const auto &...field) { (f(field), ...); }, table);
}

/** Every field of @p s as a JSON object, in table order. */
template <class S>
Json
toJson(const S &s)
{
    Json j;
    forEachField<S>([&](const auto &f) {
        const auto v = s.*f.member;
        using T = std::remove_const_t<decltype(v)>;
        if constexpr (std::is_same_v<T, bool>)
            j.set(f.name, Json::boolean(v));
        else if constexpr (std::is_floating_point_v<T>)
            j.set(f.name, Json::num(v, 6));  // host seconds, to the µs
        else
            j.set(f.name, Json::integer(v));
    });
    return j;
}

/** Campaign total: add every field of @p s into @p acc, cycles too. */
template <class S>
void
addInto(S &acc, const S &s)
{
    forEachField<S>([&](const auto &f) {
        auto &a = acc.*f.member;
        a = static_cast<std::remove_cvref_t<decltype(a)>>(a + s.*f.member);
    });
}

/** Replica merge: fold @p s into @p acc by each field's Merge rule. */
template <class S>
void
mergeInto(S &acc, const S &s)
{
    forEachField<S>([&](const auto &f) {
        auto &a = acc.*f.member;
        const auto b = s.*f.member;
        using T = std::remove_cvref_t<decltype(a)>;
        a = f.merge == Merge::Max ? std::max(a, b) : static_cast<T>(a + b);
    });
}

/**
 * The first contracted field on which @p a and @p b differ, as
 * "name: a vs b"; "" when every contracted field matches.
 */
template <class S>
std::string
firstContractedDiff(const S &a, const S &b)
{
    std::string diff;
    forEachField<S>([&](const auto &f) {
        if (diff.empty() && f.status == Status::Contracted &&
            a.*f.member != b.*f.member)
            diff = std::string(f.name) + ": " +
                   std::to_string(a.*f.member) + " vs " +
                   std::to_string(b.*f.member);
    });
    return diff;
}

}  // namespace ehdl::counters

#endif  // EHDL_COMMON_COUNTERS_HPP_
