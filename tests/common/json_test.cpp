// common/json: the reader behind every plan, record and wire payload.
// JsonTest pins the grammar (literals, escapes, nesting limit, number
// syntax); JsonFuzz throws seeded random bytes at it.  The fuzz property is
// that each input is either rejected or parses to a value whose dump() is a
// parse fixed point.
#include "common/json.hpp"

#include <gtest/gtest.h>

#include <string>

#include "common/rng.hpp"

namespace ble::json {
namespace {

/// Parses `text` and returns its compact dump; fails the test on a reject.
std::string dump_of(std::string_view text) {
    const ParseResult parsed = parse(text);
    EXPECT_TRUE(parsed.ok) << "'" << text << "': " << parsed.error;
    return parsed.value.dump();
}

/// The fuzz property for one input: rejected (with an error), or the dump of
/// the parsed value re-parses to the same dump.
void expect_rejected_or_fixed_point(std::string_view text) {
    const ParseResult parsed = parse(text);
    if (!parsed.ok) {
        EXPECT_FALSE(parsed.error.empty());
        return;
    }
    const std::string once = parsed.value.dump();
    const ParseResult again = parse(once);
    ASSERT_TRUE(again.ok) << "dump '" << once << "' does not re-parse: " << again.error;
    EXPECT_EQ(again.value.dump(), once);
}

TEST(JsonTest, LiteralsAndContainers) {
    EXPECT_EQ(dump_of("null"), "null");
    EXPECT_EQ(dump_of(" true "), "true");
    EXPECT_EQ(dump_of("false"), "false");
    EXPECT_EQ(dump_of("[ ]"), "[]");
    EXPECT_EQ(dump_of("{ }"), "{}");
    EXPECT_EQ(dump_of("{\"b\": [1, {\"a\": null}], \"a\": \"x\"}"),
              "{\"b\":[1,{\"a\":null}],\"a\":\"x\"}");  // member order kept
    for (const char* bad : {"", "nul", "tru", "falsey", "[1,]", "{\"a\"}", "{\"a\":1,}",
                            "[1 2]", "{1:2}", "\"open", "[1] x"}) {
        EXPECT_FALSE(parse(bad).ok) << bad;
    }
}

TEST(JsonTest, StringEscapes) {
    const ParseResult parsed = parse(R"("q\" b\\ s\/ \n\t\r\b\f")");
    ASSERT_TRUE(parsed.ok) << parsed.error;
    EXPECT_EQ(parsed.value.as_string(), "q\" b\\ s/ \n\t\r\b\f");

    // \u00xx decodes to the Latin-1 byte, and dump() re-escapes it the same
    // way, so every byte value round-trips.
    const ParseResult latin = parse(R"("\u0000A\u00ff")");
    ASSERT_TRUE(latin.ok) << latin.error;
    EXPECT_EQ(latin.value.as_string(), std::string("\0A\xff", 3));
    EXPECT_EQ(latin.value.dump(), R"("\u0000A\u00ff")");

    // A \u escape cut short, with bad hex digits, or an unknown escape.
    for (const char* bad : {R"("\u00)", R"("\u00")", R"("\u0)", R"("\u)", R"("\u00g1")",
                            R"("\x41")", R"("\)"}) {
        EXPECT_FALSE(parse(bad).ok) << bad;
    }
}

TEST(JsonTest, SixtyFourNestedLevelsAcceptedSixtyFiveRejected) {
    const auto nested = [](int levels) {
        return std::string(static_cast<std::size_t>(levels), '[') + "1" +
               std::string(static_cast<std::size_t>(levels), ']');
    };
    EXPECT_TRUE(parse(nested(64)).ok);
    const ParseResult deep = parse(nested(65));
    EXPECT_FALSE(deep.ok);
    EXPECT_EQ(deep.error, "nesting too deep");
    // Containers count, not values: empty arrays hit the same limit.
    EXPECT_TRUE(parse(std::string(64, '[') + std::string(64, ']')).ok);
    EXPECT_FALSE(parse(std::string(65, '[') + std::string(65, ']')).ok);

    std::string objects;
    for (int i = 0; i < 64; ++i) objects += "{\"k\":";
    objects += "0" + std::string(64, '}');
    EXPECT_TRUE(parse(objects).ok);
    EXPECT_FALSE(parse("[" + objects + "]").ok);
}

TEST(JsonTest, NumbersFollowTheJsonGrammar) {
    for (const char* good : {"0", "-0", "7", "-12", "10", "0.5", "-3.25", "1e9", "1E+9",
                             "2.5e-07", "18446744073709551615", "-9223372036854775808",
                             "0.10000000000000001"}) {
        const ParseResult parsed = parse(good);
        ASSERT_TRUE(parsed.ok) << good << ": " << parsed.error;
        EXPECT_EQ(parsed.value.raw, good);  // kept verbatim
    }
    for (const char* bad : {"--", "+1", "1.2.3", "-", "01", "-01", "1.", ".5", "1e", "1e+",
                            "1e5.0", "0x10", "1-2", "2+", "1ee3", "- 1"}) {
        EXPECT_FALSE(parse(bad).ok) << bad;
        EXPECT_FALSE(parse(std::string("{\"n\":") + bad + "}").ok) << bad;
    }
    EXPECT_EQ(parse("[-7]").value.array.at(0).as_i64(), -7);
    EXPECT_EQ(parse("18446744073709551615").value.as_u64(), 18446744073709551615u);
}

TEST(JsonFuzz, RandomBytesAreRejectedOrParseToAFixedPoint) {
    // Biased toward JSON's own alphabet so some inputs get deep into the
    // grammar instead of failing on the first byte.
    static constexpr std::string_view kAlphabet = "{}[]:,\"\\ntrufalse0123456789.eE+-u ";
    int accepted = 0;
    for (std::uint64_t seed = 1; seed <= 3000; ++seed) {
        Rng rng(seed);
        const std::size_t length = rng.next_below(24);
        std::string text;
        for (std::size_t i = 0; i < length; ++i) {
            text += rng.next_below(4) == 0
                        ? static_cast<char>(rng.next_below(256))
                        : kAlphabet[rng.next_below(kAlphabet.size())];
        }
        expect_rejected_or_fixed_point(text);
        if (parse(text).ok) ++accepted;
    }
    EXPECT_GT(accepted, 0);  // the generator reaches past the first byte
}

TEST(JsonFuzz, MutatedDocumentsAreRejectedOrParseToAFixedPoint) {
    const std::string document =
        R"({"name":"exp\"1\"","runs":25,"seed":18446744073709551615,"x":-2.5e-07,)"
        R"("tags":["a","é",null,true,false],"nested":{"k":[0,[1,{"z":{}}]]}})";
    expect_rejected_or_fixed_point(document);
    int accepted = 0;
    for (std::uint64_t seed = 1; seed <= 2000; ++seed) {
        Rng rng(seed);
        std::string mutated = document;
        const int edits = 1 + static_cast<int>(rng.next_below(3));
        for (int e = 0; e < edits && !mutated.empty(); ++e) {
            const std::size_t at = rng.next_below(mutated.size());
            switch (rng.next_below(3)) {
                case 0: mutated[at] = static_cast<char>(rng.next_below(256)); break;
                case 1: mutated.erase(at, 1); break;
                default: mutated.insert(at, 1, mutated[rng.next_below(mutated.size())]); break;
            }
        }
        expect_rejected_or_fixed_point(mutated);
        if (parse(mutated).ok) ++accepted;
    }
    EXPECT_GT(accepted, 0);
}

}  // namespace
}  // namespace ble::json
