#include "mica/dataset.hh"

#include <fstream>

namespace mica
{

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
    std::ofstream out(path);
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
}

void
saveHpcCsv(const std::string &path,
           const std::vector<uarch::HwCounterProfile> &profiles)
{
    std::ofstream out(path);
    if (!out)
        return;
    out.precision(17);
    out << "name,inst_count";
    for (const char *m : uarch::HwCounterProfile::metricNames())
        out << ',' << m;
    out << '\n';
    for (const auto &p : profiles) {
        out << p.name << ',' << p.instCount;
        for (double v : p.toVector())
            out << ',' << v;
        out << '\n';
    }
}

void
saveMatrixCsv(const std::string &path, const Matrix &m)
{
    std::ofstream out(path);
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
}

} // namespace mica
