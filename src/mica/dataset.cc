#include "mica/dataset.hh"

#include <sstream>

#include "util/checked_io.hh"

namespace mica
{

namespace
{

/** Write @p text to @p path. @throws util::IoError naming the path. */
void
writeCsv(const std::string &path, const std::string &text)
{
    util::CheckedFile f = util::CheckedFile::openWrite(path, "csv");
    f.writeAll(text.data(), text.size());
    f.close();
}

} // namespace

Matrix
profilesToMatrix(const std::vector<MicaProfile> &profiles)
{
    Matrix m;
    m.rowNames.reserve(profiles.size());
    for (const auto &info : micaCharTable())
        m.colNames.push_back(info.name);
    for (const auto &p : profiles) {
        m.appendRow(p.toVector());
        m.rowNames.push_back(p.name);
    }
    return m;
}

void
saveProfilesCsv(const std::string &path,
                const std::vector<MicaProfile> &profiles)
{
    std::ostringstream out;
    out << "name,inst_count";
    for (const auto &info : micaCharTable())
        out << ',' << info.name;
    out << '\n';
    out.precision(17);
    for (const auto &p : profiles) {
        out << p.name << ',' << p.instCount;
        for (double v : p.values)
            out << ',' << v;
        out << '\n';
    }
    writeCsv(path, out.str());
}

void
saveMatrixCsv(const std::string &path, const Matrix &m)
{
    std::ostringstream out;
    out << "name";
    for (const auto &c : m.colNames)
        out << ',' << c;
    out << '\n';
    out.precision(17);
    for (size_t r = 0; r < m.rows(); ++r) {
        out << (r < m.rowNames.size() ? m.rowNames[r]
                                      : std::to_string(r));
        for (size_t c = 0; c < m.cols(); ++c)
            out << ',' << m.at(r, c);
        out << '\n';
    }
    writeCsv(path, out.str());
}

} // namespace mica
