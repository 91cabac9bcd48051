/**
 * @file
 * Name tables for configuration enums. Each enum declares one
 * {value, name} array next to itself, and that array drives both
 * directions of its command-line spelling: parsing (fatal, exit 1, on
 * an unknown name) and printing (cell labels, reports).
 */

#ifndef SEESAW_COMMON_NAME_TABLE_HH
#define SEESAW_COMMON_NAME_TABLE_HH

#include <cstddef>
#include <string>
#include <string_view>

#include "common/logging.hh"

namespace seesaw {

/** One row of an enum's name table. */
template <typename Enum>
struct EnumName
{
    Enum value;
    const char *name;
};

/** The value @p table gives @p text; fatal with the valid names
 *  (labelled @p what) when there is none. */
template <typename Enum, std::size_t N>
Enum
parseEnumName(const EnumName<Enum> (&table)[N], std::string_view text,
              const char *what)
{
    std::string valid;
    for (const EnumName<Enum> &row : table) {
        if (text == row.name)
            return row.value;
        valid += valid.empty() ? "" : "|";
        valid += row.name;
    }
    SEESAW_FATAL("unknown ", what, " '", std::string(text), "' (use ",
                 valid, ")");
}

/** @p value's name in @p table ("?" when the table lacks it). */
template <typename Enum, std::size_t N>
const char *
enumName(const EnumName<Enum> (&table)[N], Enum value)
{
    for (const EnumName<Enum> &row : table) {
        if (row.value == value)
            return row.name;
    }
    return "?";
}

} // namespace seesaw

#endif // SEESAW_COMMON_NAME_TABLE_HH
